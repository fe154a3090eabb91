// Package api defines the body of POST /v1/kv:batch once, for the server
// that answers it (internal/server) and the Go client that sends it
// (client), and encodes and decodes it without reflection.  The encoders
// write exactly the bytes json.Marshal writes.  The decoders accept
// exactly the bodies encoding/json accepts for these types and produce the
// same values, except that a request body followed by anything but
// whitespace is refused.  The fuzz tests hold both directions to the
// encoding/json calls they replaced.
package api
