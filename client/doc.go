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
// Every body the client sends or reads is the type the server itself uses,
// declared once in internal/api: Item, Result, Status (with its
// SnodeStatus, VnodeStatus and Stats) and CreatedVnode are aliases of
// those types, so the two sides cannot drift apart.  Batch requests are
// encoded and batch responses decoded without reflection, to the same
// bytes and values encoding/json gives.
package client
