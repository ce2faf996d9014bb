package serve

import (
	"errors"
	"fmt"
	"net/http"
)

// ErrorCode is the machine-readable error taxonomy of the serving API.
// Every error response carries exactly one code, and each
// code maps to exactly one HTTP status (the table in codeStatus), so
// clients can branch on the code and treat the status as presentation.
type ErrorCode string

const (
	// CodeInvalidArgument: the request itself is wrong — malformed JSON,
	// an observation that disagrees with the deployment, a spec the
	// validator rejects, or a spec over the server's resource caps. 400.
	CodeInvalidArgument ErrorCode = "invalid_argument"
	// CodeUnauthenticated: a mutating v2 endpoint was called without a
	// bearer token while the server has one configured. 401.
	CodeUnauthenticated ErrorCode = "unauthenticated"
	// CodePermissionDenied: a bearer token was presented but does not
	// match the configured one. 403.
	CodePermissionDenied ErrorCode = "permission_denied"
	// CodeNotFound: no detector resource with that id. 404.
	CodeNotFound ErrorCode = "not_found"
	// CodeTooLarge: the request body exceeds the server's byte limit. 413.
	CodeTooLarge ErrorCode = "too_large"
	// CodeDetectorTraining: the detector exists but its training job has
	// not finished; retry after RetryAfterMS. 202 — deliberately not an
	// HTTP error class: the request was accepted against a resource that
	// is still materializing.
	CodeDetectorTraining ErrorCode = "detector_training"
	// CodeDetectorFailed: the detector's training job failed; the
	// resource stays inspectable (GET shows the error) until deleted or
	// re-registered. 409.
	CodeDetectorFailed ErrorCode = "detector_failed"
	// CodePoolFull: admitting the spec would exceed the pool's resident
	// detector limit. 429.
	CodePoolFull ErrorCode = "pool_full"
	// CodeInternal: everything else. 500.
	CodeInternal ErrorCode = "internal"
)

// codeStatus is the canonical code↔HTTP-status table.
var codeStatus = map[ErrorCode]int{
	CodeInvalidArgument:  http.StatusBadRequest,
	CodeUnauthenticated:  http.StatusUnauthorized,
	CodePermissionDenied: http.StatusForbidden,
	CodeNotFound:         http.StatusNotFound,
	CodeTooLarge:         http.StatusRequestEntityTooLarge,
	CodeDetectorTraining: http.StatusAccepted,
	CodeDetectorFailed:   http.StatusConflict,
	CodePoolFull:         http.StatusTooManyRequests,
	CodeInternal:         http.StatusInternalServerError,
}

// HTTPStatus returns the status the code maps to (500 for unknown codes,
// so a miswired code fails loudly as a server error, not a silent 200).
func (c ErrorCode) HTTPStatus() int {
	if s, ok := codeStatus[c]; ok {
		return s
	}
	return http.StatusInternalServerError
}

// APIError is the structured error body of the serving API:
//
//	{"error": {"code": "...", "message": "...", "retry_after_ms": ...}}
//
// RetryAfterMS is only set on retryable codes (detector_training) and is
// mirrored in the Retry-After response header (whole seconds, rounded
// up), so both plain HTTP clients and the typed Go client can pace their
// polling off the server's own training-duration estimate.
type APIError struct {
	Code         ErrorCode `json:"code"`
	Message      string    `json:"message"`
	RetryAfterMS int64     `json:"retry_after_ms,omitempty"`
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("%s: %s", e.Code, e.Message)
}

// apiErrorf builds an APIError with a formatted message.
func apiErrorf(code ErrorCode, format string, args ...any) *APIError {
	return &APIError{Code: code, Message: fmt.Sprintf(format, args...)}
}

// errorEnvelope is the wire wrapper around APIError.
type errorEnvelope struct {
	Error *APIError `json:"error"`
}

// writeAPIError emits the structured error body with the code's status
// and, when the error carries a retry hint, the Retry-After header.
func writeAPIError(w http.ResponseWriter, e *APIError) {
	if e.RetryAfterMS > 0 {
		secs := (e.RetryAfterMS + 999) / 1000
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	}
	writeJSON(w, e.Code.HTTPStatus(), errorEnvelope{Error: e})
}

// toAPIError coerces any error into an APIError: typed errors pass
// through, sentinel training errors map via the code table, everything
// else becomes CodeInternal.
func toAPIError(err error) *APIError {
	var api *APIError
	switch {
	case errors.As(err, &api):
		return api
	case errors.Is(err, ErrPoolFull):
		return &APIError{Code: CodePoolFull, Message: err.Error()}
	case errors.Is(err, ErrInvalidSpec):
		return &APIError{Code: CodeInvalidArgument, Message: err.Error()}
	default:
		return &APIError{Code: CodeInternal, Message: err.Error()}
	}
}
