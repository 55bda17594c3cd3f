// Package cluster is the wirecode fixture's protocol package.
package cluster

// The fixture's wire codes. CodeUnhandled is deliberately missing from
// RetryableCode, CodeOverlooked is never referenced by the fixture
// router or its front end, and CodeServed is referenced only by the
// front end (fix/internal/serve), which counts as the router's.
const (
	CodeBadRequest = "bad_request"
	CodeOverloaded = "overloaded"
	CodeServed     = "served"
	CodeUnhandled  = "mystery"    // want "wire code CodeUnhandled is not classified in RetryableCode"
	CodeOverlooked = "overlooked" // want "wire code CodeOverlooked is never referenced by cmd/swrouter or internal/serve"
)

// RetryableCode classifies all but CodeUnhandled.
func RetryableCode(code string) bool {
	switch code {
	case CodeOverloaded:
		return true
	case CodeBadRequest, CodeOverlooked, CodeServed:
		return false
	}
	return false
}
