package httpapi

import (
	"errors"
	"net/http"
)

// Error codes of the structured error envelope. Every non-2xx response
// body is {"error":{"code":…,"message":…,"requestId":…}}; the code is
// the machine-readable field clients branch on, the message is for
// humans, and the requestId joins the failure to the server's log line.
const (
	// CodeBadNode: an endpoint specifier resolved to no node (400).
	CodeBadNode = "bad_node"
	// CodeBadAlgo: an unknown algorithm name (400).
	CodeBadAlgo = "bad_algo"
	// CodeBadRequest: any other input validation failure (400).
	CodeBadRequest = "bad_request"
	// CodeTooLarge: the request body exceeds the server's size limit (413).
	CodeTooLarge = "too_large"
	// CodeNoRoute: the endpoints are valid but no path connects them (404).
	CodeNoRoute = "no_route"
	// CodeNotFound: the named resource does not exist — an unknown or
	// evicted trace id on the debug endpoints (404).
	CodeNotFound = "not_found"
	// CodeMethodNotAllowed: wrong HTTP method for the path (405).
	CodeMethodNotAllowed = "method_not_allowed"
	// CodeOverloaded: admission queue full, request shed (503 + Retry-After).
	CodeOverloaded = "overloaded"
	// CodeDeadlineExceeded: the server-side budget (default or
	// ?budget_ms=) expired before the search finished (504).
	CodeDeadlineExceeded = "deadline_exceeded"
	// CodeCanceled: the client went away mid-search (499, never seen by
	// the client — it is for the access log and metrics).
	CodeCanceled = "canceled"
	// CodeInternal: unexpected server-side failure (500).
	CodeInternal = "internal"
)

// StatusClientClosedRequest is the nginx-convention status for requests
// aborted by the client; net/http has no name for it.
const StatusClientClosedRequest = 499

// ErrorBody is the inner object of the error envelope.
type ErrorBody struct {
	Code      string `json:"code"`
	Message   string `json:"message"`
	RequestID string `json:"requestId"`
}

// codedError tags an error with its envelope code so parsing helpers can
// pick the code where the failure is diagnosed rather than threading it
// through every return path.
type codedError struct {
	code string
	err  error
}

func (e *codedError) Error() string { return e.err.Error() }
func (e *codedError) Unwrap() error { return e.err }

// withCode tags err with an envelope code.
func withCode(code string, err error) error { return &codedError{code: code, err: err} }

// codeOf extracts the tagged code, or fallback when err carries none.
func codeOf(err error, fallback string) string {
	var ce *codedError
	if errors.As(err, &ce) {
		return ce.code
	}
	return fallback
}

// apiError writes the structured error envelope. code may be "" to use
// the code tagged on err (falling back to CodeBadRequest).
func (s *Server) apiError(w http.ResponseWriter, r *http.Request, status int, code string, err error) {
	if code == "" {
		code = codeOf(err, CodeBadRequest)
	}
	s.writeBody(w, r, status, func(e *jsonBody) {
		e.errorEnvelope(code, err.Error(), RequestID(r.Context()))
	})
}
