package runner

import (
	"encoding"
	"encoding/json"
	"fmt"
	"reflect"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"

	"catch/internal/core"
)

// Every JSON body the program writes and later reads back, a disk
// cache entry or a body one catchd node sends another, is read by a
// Decoder, which accepts json.Marshal's layout of its type and nothing
// else, in one pass: object fields in declaration order under the
// names encoding/json gives them, an omitempty field absent when
// empty, no whitespace, null for a nil pointer or slice, and nothing
// after the value but the one newline json.Encoder appends. Numbers
// follow the JSON grammar and go through the strconv call
// encoding/json makes for the field's kind. Strings must be valid
// UTF-8 and may use any JSON escape except a UTF-16 surrogate;
// json.Marshal writes neither invalid UTF-8 nor surrogates. Whatever a
// Decoder accepts, json.Unmarshal decodes to the same value; anything
// else is an error. Each type is planned once: a struct's fields are
// resolved to their JSON names and bound to the decoder of their type.

// decodeFunc decodes the JSON value at d's offset into v, which is
// settable and holds its type's zero value.
type decodeFunc func(d *decodeState, v reflect.Value) error

// Decoder reads the json.Marshal encoding of a T.
type Decoder[T any] struct {
	dec decodeFunc
}

// NewDecoder plans T's decoder. Call it at package initialisation, so
// a field of a kind the planner does not support panics at once, in
// every test, instead of refusing every body of that type.
func NewDecoder[T any]() Decoder[T] {
	return Decoder[T]{dec: planDecode(reflect.TypeFor[T]())}
}

// Decode decodes raw, json.Marshal's encoding of a T optionally
// followed by one newline. It returns T's zero value with an error.
func (p Decoder[T]) Decode(raw []byte) (T, error) {
	var v T
	d := decodeState{buf: raw}
	err := p.dec(&d, reflect.ValueOf(&v).Elem())
	if err == nil {
		d.skip("\n")
		if d.off != len(raw) {
			err = d.fail("the end of the body")
		}
	}
	if err != nil {
		var zero T
		return zero, err
	}
	return v, nil
}

// decodeEntry decodes a disk cache entry written by PutDisk.
var decodeEntry = NewDecoder[[]core.Result]().Decode

var (
	jsonUnmarshaler = reflect.TypeFor[json.Unmarshaler]()
	textUnmarshaler = reflect.TypeFor[encoding.TextUnmarshaler]()
)

// planDecode builds the decoder for t. It panics on anything outside
// the kinds the decoded types use (structs, pointers, slices, arrays,
// strings, bools, integers and floats) and on types encoding/json
// would encode or decode through a custom method.
func planDecode(t reflect.Type) decodeFunc {
	if implementsAny(t, jsonMarshaler, textMarshaler, jsonUnmarshaler, textUnmarshaler) {
		panic(fmt.Sprintf("runner: cannot decode %s: it has a custom JSON or text codec", t))
	}
	switch t.Kind() {
	case reflect.Struct:
		return planDecodeStruct(t)
	case reflect.Pointer:
		elem := planDecode(t.Elem())
		return func(d *decodeState, v reflect.Value) error {
			if d.skip("null") {
				return nil
			}
			p := reflect.New(t.Elem())
			v.Set(p)
			return elem(d, p.Elem())
		}
	case reflect.Slice:
		if t.Elem().Kind() == reflect.Uint8 {
			panic(fmt.Sprintf("runner: cannot decode %s: encoding/json writes byte slices as base64", t))
		}
		elem := planDecode(t.Elem())
		return func(d *decodeState, v reflect.Value) error {
			if d.skip("null") {
				return nil
			}
			if !d.skip("[") {
				return d.fail("[ or null")
			}
			if d.skip("]") {
				v.Set(reflect.MakeSlice(t, 0, 0))
				return nil
			}
			for n := 0; ; n++ {
				if n == v.Cap() {
					v.Grow(1) // doubling, as encoding/json grows a slice
				}
				v.SetLen(n + 1)
				if err := elem(d, v.Index(n)); err != nil {
					return err
				}
				if d.skip("]") {
					return nil
				}
				if !d.skip(",") {
					return d.fail(", or ]")
				}
			}
		}
	case reflect.Array:
		elem := planDecode(t.Elem())
		return func(d *decodeState, v reflect.Value) error {
			if !d.skip("[") {
				return d.fail("[")
			}
			for i := 0; i < v.Len(); i++ {
				if i > 0 && !d.skip(",") {
					return d.fail(",")
				}
				if err := elem(d, v.Index(i)); err != nil {
					return err
				}
			}
			if !d.skip("]") {
				return d.fail("]")
			}
			return nil
		}
	case reflect.String:
		return func(d *decodeState, v reflect.Value) error {
			s, err := d.string()
			if err == nil {
				v.SetString(s)
			}
			return err
		}
	case reflect.Bool:
		return func(d *decodeState, v reflect.Value) error {
			switch {
			case d.skip("true"):
				v.SetBool(true)
			case !d.skip("false"):
				return d.fail("true or false")
			}
			return nil
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return func(d *decodeState, v reflect.Value) error {
			start := d.off
			n, err := strconv.ParseInt(string(d.number()), 10, 64)
			if err != nil || v.OverflowInt(n) {
				d.off = start
				return d.fail("an integer that fits " + t.String())
			}
			v.SetInt(n)
			return nil
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return func(d *decodeState, v reflect.Value) error {
			start := d.off
			n, err := strconv.ParseUint(string(d.number()), 10, 64)
			if err != nil || v.OverflowUint(n) {
				d.off = start
				return d.fail("an integer that fits " + t.String())
			}
			v.SetUint(n)
			return nil
		}
	case reflect.Float32, reflect.Float64:
		return func(d *decodeState, v reflect.Value) error {
			start := d.off
			f, err := strconv.ParseFloat(string(d.number()), t.Bits())
			if err != nil || v.OverflowFloat(f) {
				d.off = start
				return d.fail("a number that fits " + t.String())
			}
			v.SetFloat(f)
			return nil
		}
	}
	panic(fmt.Sprintf("runner: cannot decode %s of kind %s", t, t.Kind()))
}

// fieldDecoder is one struct field as json.Marshal writes it.
type fieldDecoder struct {
	key       string // `"name":`
	commaKey  string // `,"name":`, for every field after the first written
	index     int
	omitEmpty bool
	dec       decodeFunc
}

// planDecodeStruct binds each of t's JSON fields, in declaration
// order, to its type's decoder. Every field must be present except an
// omitempty one, which may be absent.
func planDecodeStruct(t reflect.Type) decodeFunc {
	var fields []fieldDecoder
	for _, f := range jsonFields(t, "cannot decode") {
		fields = append(fields, fieldDecoder{
			key:       string(f.key),
			commaKey:  "," + string(f.key),
			index:     f.index,
			omitEmpty: f.omitEmpty,
			dec:       planDecode(f.typ),
		})
	}
	return func(d *decodeState, v reflect.Value) error {
		if !d.skip("{") {
			return d.fail("{")
		}
		first := true
		for i := range fields {
			f := &fields[i]
			key := f.commaKey
			if first {
				key = f.key
			}
			if !d.skip(key) {
				if f.omitEmpty {
					continue
				}
				return d.fail(key)
			}
			first = false
			if err := f.dec(d, v.Field(f.index)); err != nil {
				return err
			}
		}
		if !d.skip("}") {
			return d.fail("}")
		}
		return nil
	}
}

// decodeState is the read position in one body.
type decodeState struct {
	buf []byte
	off int
}

// fail reports what the decoder wanted where the body departs from
// json.Marshal's layout.
func (d *decodeState) fail(want string) error {
	return fmt.Errorf("runner: decode: want %s at offset %d", want, d.off)
}

// skip consumes lit if the body continues with it.
func (d *decodeState) skip(lit string) bool {
	if rest := d.buf[d.off:]; len(rest) >= len(lit) && string(rest[:len(lit)]) == lit {
		d.off += len(lit)
		return true
	}
	return false
}

// number consumes the JSON number that starts the rest and returns
// its text. It returns nil, consuming nothing, when the rest starts
// with no number or with one whose fraction or exponent has no digits.
func (d *decodeState) number() []byte {
	b, i := d.buf, d.off
	digits := func() bool {
		start := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > start
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case !digits():
		return nil
	}
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			return nil
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return nil
		}
	}
	num := b[d.off:i]
	d.off = i
	return num
}

// string decodes a JSON string. One without escapes or bytes outside
// printable ASCII, which every name in the registries is, is a single
// copy.
func (d *decodeState) string() (string, error) {
	if !d.skip(`"`) {
		return "", d.fail("a string")
	}
	b := d.buf
	for i := d.off; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			s := string(b[d.off:i])
			d.off = i + 1
			return s, nil
		case c == '\\' || c < 0x20 || c >= utf8.RuneSelf:
			return d.unquote(i)
		}
	}
	d.off = len(b)
	return "", d.fail(`a closing "`)
}

// unquote finishes a string that holds an escape or a byte outside
// printable ASCII at i, decoding it as encoding/json does.
func (d *decodeState) unquote(i int) (string, error) {
	b := d.buf
	out := append(make([]byte, 0, i-d.off+16), b[d.off:i]...)
	for i < len(b) {
		d.off = i
		switch c := b[i]; {
		case c == '"':
			d.off = i + 1
			return string(out), nil
		case c == '\\':
			if i+1 == len(b) {
				return "", d.fail("an escape")
			}
			switch e := b[i+1]; e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r, ok := hex4(b[i+2:])
				if !ok || utf16.IsSurrogate(r) {
					return "", d.fail(`\u and four hex digits naming a non-surrogate`)
				}
				out = utf8.AppendRune(out, r)
				i += 4
			default:
				return "", d.fail("an escape")
			}
			i += 2
		case c < 0x20:
			return "", d.fail("an escaped control character")
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			r, size := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && size == 1 {
				return "", d.fail("valid UTF-8")
			}
			out = append(out, b[i:i+size]...)
			i += size
		}
	}
	d.off = len(b)
	return "", d.fail(`a closing "`)
}

// hex4 parses the four hex digits that start b.
func hex4(b []byte) (rune, bool) {
	if len(b) < 4 {
		return 0, false
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}
