// Package api defines the body of every /v1 route once, for the server
// that answers it (internal/server) and the Go client that sends it
// (client), so the two cannot drift apart; it imports only the standard
// library.  The batch body of POST /v1/kv:batch is also encoded and
// decoded here without reflection.  The encoders write exactly the bytes
// json.Marshal writes.  The decoders accept exactly the bodies
// encoding/json accepts for these types and produce the same values,
// except that a request body followed by anything but whitespace is
// refused.  The fuzz tests hold both directions to the encoding/json
// calls they replaced.
package api
