package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/deploy"
	"repro/internal/geom"
)

// openapiPath locates the committed spec relative to this package.
const openapiPath = "../../api/openapi.json"

// openapiStructs maps every schema under components.schemas to the Go
// struct that serializes it. DeleteResponse is absent deliberately: the
// handler emits a map literal, and the spec documents it standalone.
var openapiStructs = map[string]reflect.Type{
	"Detector":           reflect.TypeOf(DetectorJSON{}),
	"TrainInfo":          reflect.TypeOf(TrainInfoJSON{}),
	"DetectorSpec":       reflect.TypeOf(DetectorSpec{}),
	"TrainSpec":          reflect.TypeOf(TrainSpec{}),
	"Deployment":         reflect.TypeOf(deploy.Config{}),
	"FieldRect":          reflect.TypeOf(geom.Rect{}),
	"FieldPoint":         reflect.TypeOf(geom.Point{}),
	"Point":              reflect.TypeOf(PointJSON{}),
	"RegisterRequest":    reflect.TypeOf(RegisterRequest{}),
	"ListResponse":       reflect.TypeOf(ListResponse{}),
	"CheckItem":          reflect.TypeOf(BatchItemJSON{}),
	"Verdict":            reflect.TypeOf(CheckResponse{}),
	"BatchCheckRequest":  reflect.TypeOf(BatchRequest{}),
	"BatchCheckResponse": reflect.TypeOf(BatchResponse{}),
	"CorrectRequest":     reflect.TypeOf(CorrectRequest{}),
	"CorrectResponse":    reflect.TypeOf(CorrectResponse{}),
	"RethresholdRequest": reflect.TypeOf(RethresholdRequest{}),
	"Error":              reflect.TypeOf(APIError{}),
	"ErrorEnvelope":      reflect.TypeOf(errorEnvelope{}),
}

// wireField is one JSON-visible struct field.
type wireField struct {
	typ       reflect.Type
	omitempty bool
}

// wireFields derives the JSON property set of a struct the way
// encoding/json does: tag name when tagged, Go name otherwise, "-"
// and unexported fields skipped.
func wireFields(t reflect.Type) map[string]wireField {
	out := make(map[string]wireField, t.NumField())
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		name := f.Name
		omitempty := false
		if tag, ok := f.Tag.Lookup("json"); ok {
			parts := strings.Split(tag, ",")
			if parts[0] == "-" && len(parts) == 1 {
				continue
			}
			if parts[0] != "" {
				name = parts[0]
			}
			for _, opt := range parts[1:] {
				if opt == "omitempty" {
					omitempty = true
				}
			}
		}
		out[name] = wireField{typ: f.Type, omitempty: omitempty}
	}
	return out
}

// openapiType is the JSON Schema "type" a Go type serializes as.
func openapiType(t reflect.Type) string {
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	switch t.Kind() {
	case reflect.Bool:
		return "boolean"
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return "integer"
	case reflect.Float32, reflect.Float64:
		return "number"
	case reflect.String:
		return "string"
	case reflect.Slice, reflect.Array:
		return "array"
	default:
		return "object"
	}
}

func loadOpenAPI(t *testing.T) map[string]any {
	t.Helper()
	raw, err := os.ReadFile(openapiPath)
	if err != nil {
		t.Fatalf("reading %s: %v", openapiPath, err)
	}
	var spec map[string]any
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatalf("parsing %s: %v", openapiPath, err)
	}
	return spec
}

func specSchemas(t *testing.T, spec map[string]any) map[string]any {
	t.Helper()
	comps, _ := spec["components"].(map[string]any)
	schemas, _ := comps["schemas"].(map[string]any)
	if len(schemas) == 0 {
		t.Fatal("spec has no components.schemas")
	}
	return schemas
}

// TestOpenAPISyncedWithWireStructs is the contract gate between
// api/openapi.json and the serve package's wire structs: every schema
// property must exist as a JSON field of the mapped struct and vice
// versa, the schema's required list must be exactly the non-omitempty
// fields, and declared property types must match what encoding/json
// would emit. Adding a wire field without documenting it — or
// documenting a field that does not exist — fails CI's normal test leg.
func TestOpenAPISyncedWithWireStructs(t *testing.T) {
	schemas := specSchemas(t, loadOpenAPI(t))

	for name := range openapiStructs {
		if _, ok := schemas[name]; !ok {
			t.Errorf("schema %s missing from %s", name, openapiPath)
		}
	}
	for name := range schemas {
		if _, ok := openapiStructs[name]; !ok && name != "DeleteResponse" {
			t.Errorf("spec schema %s has no Go struct mapping (add it to openapiStructs)", name)
		}
	}

	for name, st := range openapiStructs {
		schema, ok := schemas[name].(map[string]any)
		if !ok {
			continue
		}
		props, _ := schema["properties"].(map[string]any)
		fields := wireFields(st)

		for prop := range props {
			if _, ok := fields[prop]; !ok {
				t.Errorf("%s: spec documents property %q; struct %s has no such JSON field", name, prop, st.Name())
			}
		}
		for field := range fields {
			if _, ok := props[field]; !ok {
				t.Errorf("%s: struct %s serializes field %q; spec does not document it", name, st.Name(), field)
			}
		}

		// required == exactly the fields that always serialize.
		var wantRequired []string
		for field, f := range fields {
			if !f.omitempty {
				wantRequired = append(wantRequired, field)
			}
		}
		sort.Strings(wantRequired)
		var gotRequired []string
		if req, ok := schema["required"].([]any); ok {
			for _, r := range req {
				gotRequired = append(gotRequired, fmt.Sprint(r))
			}
		}
		sort.Strings(gotRequired)
		if !reflect.DeepEqual(gotRequired, wantRequired) {
			t.Errorf("%s: required = %v, want %v (the non-omitempty fields)", name, gotRequired, wantRequired)
		}

		for prop, raw := range props {
			f, ok := fields[prop]
			if !ok {
				continue
			}
			ps, _ := raw.(map[string]any)
			if _, isRef := ps["$ref"]; isRef {
				if got := openapiType(f.typ); got != "object" {
					t.Errorf("%s.%s: spec uses $ref but the Go field is %s", name, prop, got)
				}
				continue
			}
			declared, _ := ps["type"].(string)
			if declared == "" {
				t.Errorf("%s.%s: property has neither type nor $ref", name, prop)
				continue
			}
			if want := openapiType(f.typ); declared != want {
				t.Errorf("%s.%s: spec type %q, struct serializes %q", name, prop, declared, want)
			}
			if declared == "array" {
				items, _ := ps["items"].(map[string]any)
				elem := f.typ
				for elem.Kind() == reflect.Pointer {
					elem = elem.Elem()
				}
				elem = elem.Elem()
				if _, isRef := items["$ref"]; isRef {
					if got := openapiType(elem); got != "object" {
						t.Errorf("%s.%s: items use $ref but the element is %s", name, prop, got)
					}
				} else if it, _ := items["type"].(string); it != openapiType(elem) {
					t.Errorf("%s.%s: items type %q, element serializes %q", name, prop, it, openapiType(elem))
				}
			}
		}
	}
}

// TestOpenAPIRefsResolve walks every $ref in the document and checks it
// points at an existing component — a rename that orphans a reference
// breaks consumers even when the schemas themselves stay valid.
func TestOpenAPIRefsResolve(t *testing.T) {
	spec := loadOpenAPI(t)
	var walk func(node any)
	walk = func(node any) {
		switch v := node.(type) {
		case map[string]any:
			for k, child := range v {
				if k == "$ref" {
					ref, _ := child.(string)
					if !refExists(spec, ref) {
						t.Errorf("dangling $ref %q", ref)
					}
					continue
				}
				walk(child)
			}
		case []any:
			for _, child := range v {
				walk(child)
			}
		}
	}
	walk(spec)
}

func refExists(spec map[string]any, ref string) bool {
	if !strings.HasPrefix(ref, "#/") {
		return false
	}
	node := any(spec)
	for _, part := range strings.Split(strings.TrimPrefix(ref, "#/"), "/") {
		m, ok := node.(map[string]any)
		if !ok {
			return false
		}
		if node, ok = m[part]; !ok {
			return false
		}
	}
	return true
}

// TestOpenAPICoversV2Routes: every /v2 route the server registers must
// appear in the spec with the same methods — the document cannot
// silently fall behind the mux.
func TestOpenAPICoversV2Routes(t *testing.T) {
	spec := loadOpenAPI(t)
	paths, _ := spec["paths"].(map[string]any)
	want := map[string][]string{
		"/v2/detectors":                  {"get", "post"},
		"/v2/detectors/{id}":             {"delete", "get"},
		"/v2/detectors/{id}/check":       {"post"},
		"/v2/detectors/{id}/check/batch": {"post"},
		"/v2/detectors/{id}/correct":     {"post"},
		"/v2/detectors/{id}/rethreshold": {"post"},
	}
	for path, methods := range want {
		ops, ok := paths[path].(map[string]any)
		if !ok {
			t.Errorf("spec missing path %s", path)
			continue
		}
		var got []string
		for m := range ops {
			if m != "parameters" {
				got = append(got, m)
			}
		}
		sort.Strings(got)
		if !reflect.DeepEqual(got, methods) {
			t.Errorf("%s: spec methods %v, server registers %v", path, got, methods)
		}
	}
	if len(paths) != len(want) {
		t.Errorf("spec documents %d paths, server registers %d", len(paths), len(want))
	}
}

// TestOpenAPIRequestBodiesClosed: the server decodes every request body
// with unknown fields disallowed, so each schema a requestBody
// references must say so with "additionalProperties": false, or a
// generated client would accept keys the server answers 400 to.
func TestOpenAPIRequestBodiesClosed(t *testing.T) {
	spec := loadOpenAPI(t)
	schemas := specSchemas(t, spec)
	paths, _ := spec["paths"].(map[string]any)
	n := 0
	for path, rawOps := range paths {
		ops, _ := rawOps.(map[string]any)
		for method, rawOp := range ops {
			op, _ := rawOp.(map[string]any)
			body, ok := op["requestBody"].(map[string]any)
			if !ok {
				continue
			}
			content, _ := body["content"].(map[string]any)
			for _, rawMedia := range content {
				media, _ := rawMedia.(map[string]any)
				schema, _ := media["schema"].(map[string]any)
				ref, _ := schema["$ref"].(string)
				name := strings.TrimPrefix(ref, "#/components/schemas/")
				s, ok := schemas[name].(map[string]any)
				if !ok {
					t.Errorf("%s %s: request body schema %q is not a component", method, path, ref)
					continue
				}
				n++
				if s["additionalProperties"] != false {
					t.Errorf("%s %s: request body schema %s lacks \"additionalProperties\": false", method, path, name)
				}
			}
		}
	}
	if n == 0 {
		t.Error("spec declares no request bodies")
	}
}
