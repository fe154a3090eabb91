// Package client is a small Go client for the dbdht HTTP API served by
// internal/server (and cmd/dhtd).  It reuses connections across calls —
// one Client is meant to live for the life of the program — and offers
// batch helpers mapping 1:1 onto the cluster's MPut/MGet/MDelete, which
// fan out across the DHT's groups in parallel server-side.
//
// Every method takes a context.Context: cancel it (or let its deadline
// pass) to abort the request.  Contexts without a deadline get the
// client's per-request timeout (WithRequestTimeout, default 30s), so no
// call can hang on an unresponsive server.  Response bodies are read with
// a hard size cap: a body whose Content-Length exceeds it is refused
// before anything is read, and one that ends short of its Content-Length
// is an error.
//
// Item and Result are the batch body schema the server itself uses
// (internal/api); batch requests are encoded and batch responses decoded
// without reflection, to the same bytes and values encoding/json gives.
package client
