package api

import (
	"encoding/base64"
	"encoding/json"
	"strconv"
)

// AppendBatchRequest appends the body of a POST /v1/kv:batch request to b:
// exactly the bytes json.Marshal(r) writes.
func AppendBatchRequest(b []byte, r *BatchRequest) []byte {
	b = append(b, `{"op":`...)
	b = appendString(b, r.Op)
	b = append(b, `,"items":`...)
	return append(appendArray(b, r.Items, appendItem), '}')
}

// AppendBatchResponse appends the body of a POST /v1/kv:batch response to
// b: exactly the bytes json.Marshal(r) writes.
func AppendBatchResponse(b []byte, r *BatchResponse) []byte {
	b = append(b, `{"results":`...)
	return append(appendArray(b, r.Results, appendResult), '}')
}

func appendItem(b []byte, it *Item) []byte {
	b = append(b, `{"key":`...)
	b = appendString(b, it.Key)
	return append(appendValue(b, it.Value), '}')
}

func appendResult(b []byte, r *Result) []byte {
	b = append(b, `{"key":`...)
	b = appendString(b, r.Key)
	b = append(b, `,"found":`...)
	b = strconv.AppendBool(b, r.Found)
	b = appendValue(b, r.Value)
	if r.Error != "" {
		b = append(b, `,"error":`...)
		b = appendString(b, r.Error)
	}
	return append(b, '}')
}

// appendArray writes a nil slice as null, as encoding/json does.
func appendArray[E any](b []byte, s []E, elem func([]byte, *E) []byte) []byte {
	if s == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i := range s {
		if i > 0 {
			b = append(b, ',')
		}
		b = elem(b, &s[i])
	}
	return append(b, ']')
}

// appendValue writes an omitempty []byte field: absent when empty,
// otherwise standard base64.
func appendValue(b []byte, v []byte) []byte {
	if len(v) == 0 {
		return b
	}
	b = append(b, `,"value":"`...)
	b = base64.StdEncoding.AppendEncode(b, v)
	return append(b, '"')
}

// appendString copies a string of printable ASCII that needs no escape
// between quotes.  Any other string goes to encoding/json alone, so its
// HTML escapes, its U+2028/U+2029 escapes and its replacement of invalid
// UTF-8 are encoding/json's own.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
