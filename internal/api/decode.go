package api

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"slices"
	"unicode/utf8"
)

// DecodeBatchRequest decodes a POST /v1/kv:batch body into r as a
// json.Decoder with DisallowUnknownFields would, and also fails when
// anything but whitespace follows the body.
func DecodeBatchRequest(body []byte, r *BatchRequest) error {
	d := decoder{buf: body, strict: true}
	return d.top([]string{"op", "items"},
		func() error { return d.text(&r.Op) },
		func() error { return array(&d, &r.Items, d.item) })
}

// DecodeBatchResponse decodes a POST /v1/kv:batch response into r as
// json.Unmarshal would.
func DecodeBatchResponse(body []byte, r *BatchResponse) error {
	d := decoder{buf: body}
	return d.top([]string{"results"}, func() error { return array(&d, &r.Results, d.result) })
}

func (d *decoder) item(it *Item) error {
	return d.object([]string{"key", "value"},
		func() error { return d.text(&it.Key) },
		func() error { return d.blob(&it.Value) })
}

func (d *decoder) result(r *Result) error {
	return d.object([]string{"key", "found", "value", "error"},
		func() error { return d.text(&r.Key) },
		func() error { return d.flag(&r.Found) },
		func() error { return d.blob(&r.Value) },
		func() error { return d.text(&r.Error) })
}

// decoder walks one body once.  The spellings encoding/json produces are
// decoded here; any other value — null, a string needing unquoting, a
// repeated array, a type error — goes to encoding/json on its own (std).
type decoder struct {
	buf     []byte
	off     int
	strict  bool // an unknown field is an error rather than skipped
	usedStd bool // a value went to encoding/json: top checks the nesting limit
}

// top decodes the whole body: one object or null, then only whitespace.
func (d *decoder) top(names []string, fields ...func() error) error {
	err := d.object(names, fields...)
	if err == nil && len(bytes.TrimLeft(d.buf[d.off:], " \t\n\r")) > 0 {
		err = fmt.Errorf("offset %d: data after the body", d.off)
	}
	// encoding/json's nesting limit counts the whole body, not the value
	// it was handed; a body this decoder walked is otherwise valid JSON.
	if err == nil && d.usedStd && !json.Valid(d.buf) {
		err = fmt.Errorf("body nests deeper than encoding/json allows")
	}
	return err
}

// object decodes an object, or null.  A field matching names[i] as
// encoding/json matches a struct field, exactly or under Unicode case
// folding, is decoded by fields[i]; any other field is unknown.
func (d *decoder) object(names []string, fields ...func() error) error {
	if d.literal("null") {
		return nil
	}
	if !d.consume('{') {
		return d.fail("an object")
	}
	for first := true; !d.consume('}'); first = false {
		if !first && !d.consume(',') {
			return d.fail("',' or '}'")
		}
		key, err := d.str()
		switch i := slices.IndexFunc(names, func(n string) bool { return string(key) == n || bytes.EqualFold(key, []byte(n)) }); {
		case err != nil:
		case !d.consume(':'):
			err = d.fail("':'")
		case i >= 0:
			err = fields[i]()
		case d.strict:
			err = fmt.Errorf("unknown field %q", key)
		default:
			err = d.std(new(json.RawMessage))
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// array decodes an array element by element.  A field that repeats is
// decoded by encoding/json into the elements already there, stale ones
// beyond the new length included, so that case goes to it, as does null.
func array[E any](d *decoder, s *[]E, elem func(*E) error) error {
	if *s != nil || !d.consume('[') {
		return d.std(s)
	}
	v := []E{}
	for first := true; !d.consume(']'); first = false {
		if !first && !d.consume(',') {
			return d.fail("',' or ']'")
		}
		v = append(v, *new(E))
		if err := elem(&v[len(v)-1]); err != nil {
			return err
		}
	}
	*s = v
	return nil
}

// str decodes a string, slicing its contents from the body when they are
// its value: ASCII from the space up, with no backslash.
func (d *decoder) str() ([]byte, error) {
	if !d.at('"') {
		return nil, d.fail("a string")
	}
	for i := d.off + 1; i < len(d.buf); i++ {
		if c := d.buf[i]; c == '"' {
			s := d.buf[d.off+1 : i]
			d.off = i + 1
			return s, nil
		} else if c < ' ' || c >= utf8.RuneSelf || c == '\\' {
			break
		}
	}
	var s string
	err := d.std(&s)
	return []byte(s), err
}

func (d *decoder) text(s *string) error {
	if !d.at('"') {
		return d.std(s)
	}
	v, err := d.str()
	*s = string(v)
	return err
}

func (d *decoder) flag(f *bool) error {
	switch {
	case d.literal("true"):
		*f = true
	case d.literal("false"):
		*f = false
	default:
		return d.std(f)
	}
	return nil
}

// blob decodes base64 straight from the body.  Up to the next quote,
// base64 refuses every byte that would make a string's contents differ
// from its value (backslash, control byte, non-ASCII) except a raw CR or
// LF, which it skips and JSON forbids.
func (d *decoder) blob(b *[]byte) error {
	if d.at('"') {
		if n := bytes.IndexByte(d.buf[d.off+1:], '"'); n >= 0 {
			src := d.buf[d.off+1 : d.off+1+n]
			v := make([]byte, base64.StdEncoding.DecodedLen(n))
			m, err := base64.StdEncoding.Decode(v, src)
			if err == nil && bytes.IndexByte(src, '\r') < 0 && bytes.IndexByte(src, '\n') < 0 {
				d.off += n + 2
				*b = v[:m]
				return nil
			}
		}
	}
	return d.std(b)
}

// std decodes the value at off into v with encoding/json.
func (d *decoder) std(v any) error {
	d.usedStd = true
	dec := json.NewDecoder(bytes.NewReader(d.buf[d.off:]))
	if d.strict {
		dec.DisallowUnknownFields()
	}
	err := dec.Decode(v)
	d.off += int(dec.InputOffset())
	return err
}

// at skips whitespace and reports whether c comes next.
func (d *decoder) at(c byte) bool {
	for d.off < len(d.buf) && (d.buf[d.off] == ' ' || d.buf[d.off] == '\t' || d.buf[d.off] == '\n' || d.buf[d.off] == '\r') {
		d.off++
	}
	return d.off < len(d.buf) && d.buf[d.off] == c
}

func (d *decoder) consume(c byte) bool {
	if !d.at(c) {
		return false
	}
	d.off++
	return true
}

func (d *decoder) literal(lit string) bool {
	if !d.at(lit[0]) || !bytes.HasPrefix(d.buf[d.off:], []byte(lit)) {
		return false
	}
	d.off += len(lit)
	return true
}

func (d *decoder) fail(want string) error {
	return fmt.Errorf("offset %d: want %s", d.off, want)
}
