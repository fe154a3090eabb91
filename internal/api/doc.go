// Package api defines the body of POST /v1/kv:batch once, for the server
// that answers it (internal/server) and the Go client that sends it
// (client), and decodes it without reflection.  Encoding stays on
// encoding/json.  The decoders accept exactly the bodies encoding/json
// accepts for these types and produce the same values, except that a
// request body followed by anything but whitespace is refused; the fuzz
// tests hold them to the encoding/json calls they replaced.
package api
