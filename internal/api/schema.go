package api

// BatchRequest is the body of POST /v1/kv:batch.  Op selects the verb
// applied to every item; Value is base64 in JSON ([]byte), used by "put".
type BatchRequest struct {
	Op    string `json:"op"` // "put" | "get" | "delete"
	Items []Item `json:"items"`
}

// Item is one key (and, for puts, its value) of a batch.
type Item struct {
	Key   string `json:"key"`
	Value []byte `json:"value,omitempty"`
}

// BatchResponse answers a batch, results parallel to the request items.
type BatchResponse struct {
	Results []Result `json:"results"`
}

// Result is one key's outcome; Error is empty on success.
type Result struct {
	Key   string `json:"key"`
	Found bool   `json:"found"`
	Value []byte `json:"value,omitempty"`
	Error string `json:"error,omitempty"`
}

// OK reports whether the operation on this key succeeded.
func (r Result) OK() bool { return r.Error == "" }
