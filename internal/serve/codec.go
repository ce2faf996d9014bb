package serve

// The request codec of the hot check verbs. Bodies of the three types
// the v2 check, check/batch and correct endpoints decode — BatchItemJSON,
// BatchRequest and CorrectRequest — are parsed by a hand-written scanner
// into pooled scratch, and their verdict and correction responses are
// written by an append encoder. Every other body, and every body of
// those types the scanner does not accept, goes through encoding/json.
//
// The scanner accepts only inputs whose encoding/json result it
// reproduces exactly: exact lower-case keys, each at most once; no null
// and no escapes in keys; counts that are non-negative integers of at
// most 18 digits; coordinates that match the JSON number grammar and
// parse with strconv.ParseFloat without a range error. On anything else
// it hands the same bytes to the strict encoding/json decoder, which
// then also produces every error message. FuzzV2RequestDecode holds the
// scanner to that contract.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
	"unsafe"

	"repro/internal/core"
)

// maxPooledBytes is the largest buffer a finished request hands back to
// the pool: one 16 MB batch must not pin its buffers for the life of
// the process.
const maxPooledBytes = 1 << 20

// scratch is one request's body, decode scratch and response buffer,
// reused across requests through scratchPool. Values the scanner decodes
// alias it (observations slice into ints), so it is released only after
// the response is written.
type scratch struct {
	body []byte
	pos  int // scanner cursor into body

	items    []BatchItemJSON
	ints     []int // slab every scanned observation slices into
	batch    []core.BatchItem
	verdicts []core.Verdict

	locs  [maxLocs]locSpan // location objects this body has decoded
	nlocs int

	out []byte // encoded response body
}

// maxLocs bounds the per-body location table. A gateway's batch repeats
// a handful of claimed positions; a body with more distinct ones than
// this decodes the rest with scanPoint, as if there were no table.
const maxLocs = 8

// locSpan is one location object the scanner accepted: body[lo:hi]
// runs from its '{' to its matching '}' and decodes to p. head, its
// first eight bytes read little-endian, turns away most other objects
// with one compare.
type locSpan struct {
	lo, hi int
	head   uint64
	p      PointJSON
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

// release returns c to the pool, dropping any buffer over
// maxPooledBytes. It first clears the pointers into the observations
// this request decoded: left in a pooled items or batch array past the
// next request's length, they would pin a dropped ints slab (and the
// arrays encoding/json allocated) for as long as the scratch is reused.
// Every entry a request wrote lies within its length.
func (c *scratch) release() {
	clear(c.items)
	clear(c.batch)
	c.body = pooled(c.body)
	c.items = pooled(c.items)
	c.ints = pooled(c.ints)
	c.batch = pooled(c.batch)
	c.verdicts = pooled(c.verdicts)
	c.out = pooled(c.out)
	scratchPool.Put(c)
}

// pooled returns s, or nil when its backing array is over
// maxPooledBytes.
func pooled[T any](s []T) []T {
	var zero T
	if uintptr(cap(s))*unsafe.Sizeof(zero) > maxPooledBytes {
		return nil
	}
	return s
}

// readBody reads r to EOF into c.body, presized from the declared
// length. The presize stops at maxPooledBytes, so a client that declares
// a large body and sends little costs no more than it sends.
func (c *scratch) readBody(r io.Reader, declared int64) error {
	buf := bytes.NewBuffer(c.body[:0])
	buf.Grow(int(min(max(declared, 0), maxPooledBytes)) + bytes.MinRead)
	_, err := buf.ReadFrom(r)
	c.body = buf.Bytes()
	return err
}

// decodeBody decodes c.body into dst: through the scanner when dst is
// one of the hot request types and the scanner accepts the bytes,
// through decodeJSON otherwise.
func (c *scratch) decodeBody(dst any) error {
	var ok bool
	switch v := dst.(type) {
	case *BatchRequest:
		ok = c.scanBatch(v)
	case *BatchItemJSON:
		ok = c.scanCheck(v)
	case *CorrectRequest:
		ok = c.scanCorrect(v)
	}
	if ok {
		return nil
	}
	return decodeJSON(c.body, dst)
}

// decodeJSON is the strict encoding/json decoder: unknown fields and
// any non-whitespace after the value are errors.
func decodeJSON(body []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return err
	}
	if rest := bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n"); len(rest) > 0 {
		return fmt.Errorf("invalid character %q after top-level value", rest[0])
	}
	return nil
}

// reset readies the scanner for a new pass over c.body. ints and items
// are kept non-nil so an empty array decodes to an empty, non-nil slice,
// as encoding/json decodes it.
//
//lad:noalloc
func (c *scratch) reset() {
	c.pos = 0
	c.nlocs = 0
	if cap(c.ints) < 1 {
		c.ints = make([]int, 0, 256)
	}
	if cap(c.items) < 1 {
		c.items = make([]BatchItemJSON, 0, 8)
	}
	c.ints = c.ints[:0]
	c.items = c.items[:0]
}

// scanBatch scans c.body as a BatchRequest, reporting false to hand off.
//
//lad:noalloc
func (c *scratch) scanBatch(dst *BatchRequest) bool {
	c.reset()
	var req BatchRequest
	if !c.consume('{') {
		return false
	}
	for n := 0; !c.consume('}'); n++ {
		k, ok := c.member(n)
		if !ok || req.Items != nil || !sameKey(k, "items") || !c.consume('[') {
			return false
		}
		for i := 0; !c.consume(']'); i++ {
			if i > 0 && !c.consume(',') {
				return false
			}
			c.items = append(c.items, BatchItemJSON{})
			if !c.scanItem(&c.items[len(c.items)-1]) {
				return false
			}
		}
		req.Items = c.items[:len(c.items):len(c.items)]
	}
	if !c.end() {
		return false
	}
	*dst = req
	return true
}

// scanCheck scans c.body as a single check's BatchItemJSON, reporting
// false to hand off.
//
//lad:noalloc
func (c *scratch) scanCheck(dst *BatchItemJSON) bool {
	c.reset()
	var it BatchItemJSON
	if !c.scanItem(&it) || !c.end() {
		return false
	}
	*dst = it
	return true
}

// scanCorrect scans c.body as a CorrectRequest, reporting false to hand
// off.
//
//lad:noalloc
func (c *scratch) scanCorrect(dst *CorrectRequest) bool {
	c.reset()
	var req CorrectRequest
	var seenObs bool
	if !c.consume('{') {
		return false
	}
	for n := 0; !c.consume('}'); n++ {
		k, ok := c.member(n)
		switch {
		case !ok:
		case !seenObs && sameKey(k, "observation"):
			seenObs = true
			ok = c.scanInts(&req.Observation)
		default:
			ok = false
		}
		if !ok {
			return false
		}
	}
	if !c.end() {
		return false
	}
	*dst = req
	return true
}

// scanItem scans one {"observation":[...],"location":{...}} object.
//
//lad:noalloc
func (c *scratch) scanItem(it *BatchItemJSON) bool {
	var seenObs, seenLoc bool
	if !c.consume('{') {
		return false
	}
	for n := 0; !c.consume('}'); n++ {
		k, ok := c.member(n)
		switch {
		case !ok:
		case !seenObs && sameKey(k, "observation"):
			seenObs = true
			ok = c.scanInts(&it.Observation)
		case !seenLoc && sameKey(k, "location"):
			seenLoc = true
			ok = c.location(&it.Location)
		default:
			ok = false
		}
		if !ok {
			return false
		}
	}
	return true
}

// location scans an item's location object through the body's table
// of decoded ones. Bytes that start with a remembered span hold that
// same object, '{' to matching '}', so they decode to its point: the
// scanner copies it and skips the span. Anything else goes to scanPoint,
// and an accepted object of at least eight bytes (every one that holds
// both coordinates) is remembered while the table has room.
//
//lad:noalloc
func (c *scratch) location(p *PointJSON) bool {
	c.skipSpace()
	if rest := c.body[c.pos:]; len(rest) >= 8 {
		head := binary.LittleEndian.Uint64(rest)
		for _, l := range c.locs[:c.nlocs] {
			if l.head == head && bytes.HasPrefix(rest, c.body[l.lo:l.hi]) {
				*p = l.p
				c.pos += l.hi - l.lo
				return true
			}
		}
	}
	lo := c.pos
	if !c.scanPoint(p) {
		return false
	}
	if c.nlocs < maxLocs && c.pos-lo >= 8 {
		c.locs[c.nlocs] = locSpan{lo: lo, hi: c.pos, head: binary.LittleEndian.Uint64(c.body[lo:]), p: *p}
		c.nlocs++
	}
	return true
}

// scanPoint scans one {"x":...,"y":...} object.
//
//lad:noalloc
func (c *scratch) scanPoint(p *PointJSON) bool {
	var seenX, seenY bool
	if !c.consume('{') {
		return false
	}
	for n := 0; !c.consume('}'); n++ {
		k, ok := c.member(n)
		switch {
		case !ok:
		case !seenX && sameKey(k, "x"):
			seenX = true
			p.X, ok = c.number()
		case !seenY && sameKey(k, "y"):
			seenY = true
			p.Y, ok = c.number()
		default:
			ok = false
		}
		if !ok {
			return false
		}
	}
	return true
}

// scanInts scans an array of counts into the ints slab and points dst
// at them. A slab that grows mid-body leaves earlier observations on the
// old backing array, which stays live and correct.
//
// A sensor hears few of the deployment's groups, so most counts are 0:
// before each count, runs of "0,0,0,0," are taken eight bytes at a time.
// Whitespace, ']', a short tail or anything else goes to the per-count
// path.
//
//lad:noalloc
func (c *scratch) scanInts(dst *[]int) bool {
	if !c.consume('[') {
		return false
	}
	start := len(c.ints)
	if !c.consume(']') {
		b, i := c.body, c.pos
		for {
			for len(b)-i >= 8 && binary.LittleEndian.Uint64(b[i:]) == zeroRun {
				c.ints = append(c.ints, 0, 0, 0, 0)
				i += 8
			}
			v, next, ok := parseCount(b, spaceEnd(b, i))
			if !ok {
				return false
			}
			c.ints = append(c.ints, v)
			if i = spaceEnd(b, next); i == len(b) {
				return false
			}
			i++
			if sep := b[i-1]; sep == ']' {
				break
			} else if sep != ',' {
				return false
			}
		}
		c.pos = i
	}
	end := len(c.ints)
	*dst = c.ints[start:end:end]
	return true
}

// zeroRun is "0,0,0,0," read as a little-endian word.
const zeroRun = 0x2c302c302c302c30

// skipSpace advances past JSON whitespace.
//
//lad:noalloc
func (c *scratch) skipSpace() {
	c.pos = spaceEnd(c.body, c.pos)
}

// spaceEnd returns the index of the first byte at or after i that is not
// JSON whitespace. Its first comparison settles every byte of a compact
// body.
//
//lad:noalloc
func spaceEnd(b []byte, i int) int {
	for i < len(b) && b[i] <= ' ' && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// consume skips whitespace and advances past b if it comes next.
//
//lad:noalloc
func (c *scratch) consume(b byte) bool {
	c.skipSpace()
	if c.pos < len(c.body) && c.body[c.pos] == b {
		c.pos++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
//
//lad:noalloc
func (c *scratch) end() bool {
	c.skipSpace()
	return c.pos == len(c.body)
}

// member scans the key of an object's member n (counting from 0),
// with the ',' that precedes every member but the first and the ':'
// after the key, returning the raw bytes between the quotes. The caller
// has already consumed the '{' and checked for the closing '}'. A name
// with an escape is refused: no accepted key has one.
//
//lad:noalloc
func (c *scratch) member(n int) ([]byte, bool) {
	if (n > 0 && !c.consume(',')) || !c.consume('"') {
		return nil, false
	}
	start := c.pos
	for c.pos < len(c.body) {
		switch c.body[c.pos] {
		case '\\':
			return nil, false
		case '"':
			k := c.body[start:c.pos]
			c.pos++
			return k, c.consume(':')
		}
		c.pos++
	}
	return nil, false
}

// sameKey reports whether the raw bytes k spell exactly name.
//
//lad:noalloc
func sameKey(k []byte, name string) bool {
	if len(k) != len(name) {
		return false
	}
	for i := range k {
		if k[i] != name[i] {
			return false
		}
	}
	return true
}

// maxCountDigits keeps every accepted count below 1e18, inside int64.
const maxCountDigits = 18

// parseCount parses the non-negative integer of at most maxCountDigits
// digits, without a leading zero, that starts at b[i], returning it and
// the index after it. What follows is left to the caller's structural
// check, which refuses a fraction, an exponent or a 19th digit.
//
//lad:noalloc
func parseCount(b []byte, i int) (int, int, bool) {
	start := i
	var v uint64
	for i < len(b) && i-start < maxCountDigits && '0' <= b[i] && b[i] <= '9' {
		v = v*10 + uint64(b[i]-'0')
		i++
	}
	if i == start || (b[start] == '0' && i > start+1) || v > math.MaxInt {
		return 0, 0, false
	}
	return int(v), i, true
}

// number scans a JSON number and parses it as encoding/json does.
//
//lad:noalloc
func (c *scratch) number() (float64, bool) {
	c.skipSpace()
	b, start := c.body, c.pos
	i := start
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		return 0, false
	}
	if i < len(b) && b[i] == '.' {
		if i++; i == len(b) || b[i] < '0' || b[i] > '9' {
			return 0, false
		}
		i = digits(b, i)
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i == len(b) || b[i] < '0' || b[i] > '9' {
			return 0, false
		}
		i = digits(b, i)
	}
	//lint:ignore ladvet/noalloc ParseFloat does not retain its argument, so a conversion of up to 32 bytes stays on the stack (TestV2BatchAllocs pins it)
	f, err := strconv.ParseFloat(string(b[start:i]), 64)
	if err != nil {
		return 0, false
	}
	c.pos = i
	return f, true
}

// digits returns the index of the first non-digit at or after i.
//
//lad:noalloc
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// encodeVerdict encodes one check's response into c.out, reporting
// false for a value encoding/json cannot encode (a non-finite float).
//
//lad:noalloc
func (c *scratch) encodeVerdict(v core.Verdict) bool {
	c.out = c.out[:0]
	var thr thresholdMemo
	ok := c.verdict(v, &thr)
	c.out = append(c.out, '\n')
	return ok
}

// encodeBatch encodes a batch's response into c.out.
//
//lad:noalloc
func (c *scratch) encodeBatch(vs []core.Verdict) bool {
	c.out = c.out[:0]
	c.out = append(c.out, `{"results":[`...)
	var thr thresholdMemo
	for i, v := range vs {
		if i > 0 {
			c.out = append(c.out, ',')
		}
		if !c.verdict(v, &thr) {
			return false
		}
	}
	c.out = append(c.out, "]}\n"...)
	return true
}

// encodeCorrection encodes a correction's response into c.out.
//
//lad:noalloc
func (c *scratch) encodeCorrection(resp CorrectResponse) bool {
	c.out = c.out[:0]
	c.out = append(c.out, `{"location":{"x":`...)
	if !c.float(resp.Location.X) {
		return false
	}
	c.out = append(c.out, `,"y":`...)
	if !c.float(resp.Location.Y) {
		return false
	}
	c.out = append(c.out, "}}\n"...)
	return true
}

// thresholdMemo is where one response's last formatted threshold lies in
// c.out. Every verdict of a batch scored between two rethresholds
// carries the same threshold, so its bytes are copied, not formatted
// again.
type thresholdMemo struct {
	bits   uint64 // math.Float64bits of the threshold
	lo, hi int    // c.out[lo:hi] encodes it; hi is 0 before the first
}

// verdict appends one CheckResponse object.
//
//lad:noalloc
func (c *scratch) verdict(v core.Verdict, thr *thresholdMemo) bool {
	c.out = append(c.out, `{"score":`...)
	if !c.float(v.Score) {
		return false
	}
	c.out = append(c.out, `,"threshold":`...)
	if bits := math.Float64bits(v.Threshold); thr.hi > 0 && bits == thr.bits {
		c.out = append(c.out, c.out[thr.lo:thr.hi]...)
	} else {
		lo := len(c.out)
		if !c.float(v.Threshold) {
			return false
		}
		*thr = thresholdMemo{bits: bits, lo: lo, hi: len(c.out)}
	}
	if v.Alarm {
		c.out = append(c.out, `,"alarm":true}`...)
	} else {
		c.out = append(c.out, `,"alarm":false}`...)
	}
	return true
}

// float appends f exactly as encoding/json writes a float64: the
// shortest representation, in exponent form below 1e-6 and from 1e21,
// with a two-digit negative exponent shortened to one (e-07 → e-7).
//
//lad:noalloc
func (c *scratch) float(f float64) bool {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	c.out = strconv.AppendFloat(c.out, f, format, -1, 64)
	if n := len(c.out); format == 'e' && c.out[n-4] == 'e' && c.out[n-3] == '-' && c.out[n-2] == '0' {
		c.out[n-2] = c.out[n-1]
		c.out = c.out[:n-1]
	}
	return true
}
