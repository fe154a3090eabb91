package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// stdRequest decodes body the way the server did before this package:
// one json.Decoder value with unknown fields refused, then nothing but
// whitespace.
func stdRequest(body []byte) (BatchRequest, error) {
	var r BatchRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return r, err
	}
	if rest := bytes.Trim(body[dec.InputOffset():], " \t\r\n"); len(rest) > 0 {
		return r, fmt.Errorf("data after the body: %q", rest)
	}
	return r, nil
}

// agreeRequest fails t unless DecodeBatchRequest and stdRequest agree on
// body: both reject it, or both accept it with equal values, which
// AppendBatchRequest then encodes to json.Marshal's bytes.
func agreeRequest(t *testing.T, body []byte) {
	t.Helper()
	var got BatchRequest
	err := DecodeBatchRequest(body, &got)
	want, werr := stdRequest(body)
	if (err == nil) != (werr == nil) {
		t.Fatalf("body %q: DecodeBatchRequest error %v, encoding/json error %v", body, err, werr)
	}
	if err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("body %q:\nDecodeBatchRequest %#v\nencoding/json      %#v", body, got, want)
	}
	if werr == nil {
		agreeEncoding(t, body, AppendBatchRequest(nil, &want), mustMarshal(t, want))
	}
}

// agreeResponse is agreeRequest for DecodeBatchResponse against
// json.Unmarshal, which the client used before this package, and for
// AppendBatchResponse.
func agreeResponse(t *testing.T, body []byte) {
	t.Helper()
	var got, want BatchResponse
	err := DecodeBatchResponse(body, &got)
	werr := json.Unmarshal(body, &want)
	if (err == nil) != (werr == nil) {
		t.Fatalf("body %q: DecodeBatchResponse error %v, json.Unmarshal error %v", body, err, werr)
	}
	if err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("body %q:\nDecodeBatchResponse %#v\njson.Unmarshal      %#v", body, got, want)
	}
	if werr == nil {
		agreeEncoding(t, body, AppendBatchResponse(nil, &want), mustMarshal(t, want))
	}
}

func agreeEncoding(t *testing.T, body, got, want []byte) {
	t.Helper()
	if !bytes.Equal(got, want) {
		t.Fatalf("value decoded from %q:\nAppendBatch… %q\njson.Marshal %q", body, got, want)
	}
}

// The seed corpus in testdata/fuzz covers field names in other cases
// (Kelvin sign and long s included), every escape and lone surrogates,
// invalid UTF-8 and raw control bytes, null in every position, repeated
// fields, escaped newlines inside base64, values spelled as number arrays,
// unknown fields holding nested values, whitespace between every pair of
// tokens, trailing data, and 64-element bodies.

func FuzzDecodeBatchRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) { agreeRequest(t, body) })
}

func FuzzDecodeBatchResponse(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) { agreeResponse(t, body) })
}

// TestSkippedValueDepth holds a skipped field to encoding/json's nesting
// limit, which counts the top-level object, the results array and the
// result around it.
func TestSkippedValueDepth(t *testing.T) {
	for _, n := range []int{9996, 9997, 9998, 10001} {
		deep := strings.Repeat("[", n) + strings.Repeat("]", n)
		agreeResponse(t, []byte(`{"results":[{"x":`+deep+`}]}`))
		agreeResponse(t, []byte(`{"x":`+deep+`}`))
	}
}

func mustMarshal(t testing.TB, v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// batch64 returns the bodies of a 64-key get, a 64-item put and the
// response to a 64-key get, with 128-byte values like the benchmark's.
func batch64(t testing.TB) (get, put, resp []byte) {
	var g, p BatchRequest
	var r BatchResponse
	g.Op, p.Op = "get", "put"
	for i := range 64 {
		key := fmt.Sprintf("key-%08d", i*7919)
		value := bytes.Repeat([]byte{byte(i)}, 128)
		g.Items = append(g.Items, Item{Key: key})
		p.Items = append(p.Items, Item{Key: key, Value: value})
		r.Results = append(r.Results, Result{Key: key, Found: true, Value: value})
	}
	return mustMarshal(t, g), mustMarshal(t, p), mustMarshal(t, r)
}

// The encoding_json sub-benchmarks time the calls DecodeBatchRequest and
// DecodeBatchResponse replaced.
func BenchmarkDecodeBatchRequest(b *testing.B) {
	get, put, _ := batch64(b)
	for _, bc := range []struct {
		name string
		body []byte
	}{{"get64", get}, {"put64", put}} {
		b.Run(bc.name+"/api", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				var r BatchRequest
				if err := DecodeBatchRequest(bc.body, &r); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(bc.name+"/encoding_json", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				var r BatchRequest
				dec := json.NewDecoder(bytes.NewReader(bc.body))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// The encoding_json sub-benchmarks time json.Marshal, which the client
// called for requests, and the server's json.Encoder for responses.
func BenchmarkEncodeBatchRequest(b *testing.B) {
	get, put, _ := batch64(b)
	for _, bc := range []struct {
		name string
		body []byte
	}{{"get64", get}, {"put64", put}} {
		var r BatchRequest
		if err := DecodeBatchRequest(bc.body, &r); err != nil {
			b.Fatal(err)
		}
		b.Run(bc.name+"/api", func(b *testing.B) {
			b.ReportAllocs()
			buf := make([]byte, 0, 2*len(bc.body))
			for b.Loop() {
				buf = AppendBatchRequest(buf[:0], &r)
			}
		})
		b.Run(bc.name+"/encoding_json", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := json.Marshal(&r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkEncodeBatchResponse(b *testing.B) {
	_, _, resp := batch64(b)
	var r BatchResponse
	if err := DecodeBatchResponse(resp, &r); err != nil {
		b.Fatal(err)
	}
	b.Run("get64/api", func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]byte, 0, 2*len(resp))
		for b.Loop() {
			buf = AppendBatchResponse(buf[:0], &r)
		}
	})
	b.Run("get64/encoding_json", func(b *testing.B) {
		b.ReportAllocs()
		var buf bytes.Buffer
		for b.Loop() {
			buf.Reset()
			if err := json.NewEncoder(&buf).Encode(&r); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkDecodeBatchResponse(b *testing.B) {
	_, _, resp := batch64(b)
	b.Run("get64/api", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			var r BatchResponse
			if err := DecodeBatchResponse(resp, &r); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("get64/encoding_json", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			var r BatchResponse
			if err := json.Unmarshal(resp, &r); err != nil {
				b.Fatal(err)
			}
		}
	})
}
