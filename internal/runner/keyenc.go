package runner

import (
	"encoding"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
)

// The job key hashes the canonical JSON of a Job: the bytes
// json.Marshal writes, with object keys sorted byte-wise at every level
// and each byte of invalid UTF-8 in a string written as a raw U+FFFD.
// That is exactly what decoding json.Marshal's output and re-encoding
// it with sorted keys produces (the reference the key tests compare
// against), written here in one pass over the value by reflection.
// Each type is planned once: its fields are resolved to their JSON
// names, sorted, and bound to the encoder of their type.

// appendFunc appends the canonical JSON of v to dst.
type appendFunc func(dst []byte, v reflect.Value) []byte

// jobEncoder is planned at package initialisation, so a Job field of a
// kind the planner does not support panics at once, in every test,
// instead of silently changing keys.
var jobEncoder = planCanonical(reflect.TypeFor[Job]())

// appendCanonicalJob appends the canonical JSON of *j to dst.
//
//catch:keyenc
func appendCanonicalJob(dst []byte, j *Job) []byte {
	return jobEncoder(dst, reflect.ValueOf(j).Elem())
}

var (
	jsonMarshaler = reflect.TypeFor[json.Marshaler]()
	textMarshaler = reflect.TypeFor[encoding.TextMarshaler]()
)

// planCanonical builds the encoder for t. It panics on anything outside
// the kinds Job's type tree uses (structs, pointers, slices, strings,
// bools and integers) and on types encoding/json would encode through
// a custom marshaler.
func planCanonical(t reflect.Type) appendFunc {
	for _, m := range []reflect.Type{t, reflect.PointerTo(t)} {
		if m.Implements(jsonMarshaler) || m.Implements(textMarshaler) {
			panic(fmt.Sprintf("runner: job key cannot encode %s: it has a custom JSON or text marshaler", t))
		}
	}
	switch t.Kind() {
	case reflect.Struct:
		return planStruct(t)
	case reflect.Pointer:
		elem := planCanonical(t.Elem())
		return func(dst []byte, v reflect.Value) []byte {
			if v.IsNil() {
				return append(dst, "null"...)
			}
			return elem(dst, v.Elem())
		}
	case reflect.Slice:
		if t.Elem().Kind() == reflect.Uint8 {
			panic(fmt.Sprintf("runner: job key cannot encode %s: encoding/json writes byte slices as base64", t))
		}
		elem := planCanonical(t.Elem())
		return func(dst []byte, v reflect.Value) []byte {
			if v.IsNil() {
				return append(dst, "null"...)
			}
			dst = append(dst, '[')
			for i := 0; i < v.Len(); i++ {
				if i > 0 {
					dst = append(dst, ',')
				}
				dst = elem(dst, v.Index(i))
			}
			return append(dst, ']')
		}
	case reflect.String:
		return func(dst []byte, v reflect.Value) []byte { return appendString(dst, v.String()) }
	case reflect.Bool:
		return func(dst []byte, v reflect.Value) []byte { return strconv.AppendBool(dst, v.Bool()) }
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return func(dst []byte, v reflect.Value) []byte { return strconv.AppendInt(dst, v.Int(), 10) }
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return func(dst []byte, v reflect.Value) []byte { return strconv.AppendUint(dst, v.Uint(), 10) }
	}
	panic(fmt.Sprintf("runner: job key cannot encode %s of kind %s", t, t.Kind()))
}

// fieldPlan is one struct field as the canonical JSON writes it.
type fieldPlan struct {
	name      string
	key       []byte // the encoded name and its colon
	index     int
	omitEmpty bool
	enc       appendFunc
}

// planStruct resolves t's fields as encoding/json does (the json tag's
// name, else the Go name; unexported and json:"-" fields skipped;
// omitempty honoured) and sorts them by name.
func planStruct(t reflect.Type) appendFunc {
	var fields []fieldPlan
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if f.Anonymous {
			panic(fmt.Sprintf("runner: job key cannot encode embedded field %s.%s", t, f.Name))
		}
		tag := f.Tag.Get("json")
		if !f.IsExported() || tag == "-" {
			continue
		}
		name, opts, _ := strings.Cut(tag, ",")
		if name == "" {
			name = f.Name
		}
		fp := fieldPlan{name: name, key: append(appendString(nil, name), ':'), index: i, enc: planCanonical(f.Type)}
		for _, opt := range strings.Split(opts, ",") {
			switch opt {
			case "":
			case "omitempty":
				fp.omitEmpty = true
			default:
				panic(fmt.Sprintf("runner: job key cannot encode %s.%s: json option %q", t, f.Name, opt))
			}
		}
		fields = append(fields, fp)
	}
	slices.SortFunc(fields, func(a, b fieldPlan) int { return strings.Compare(a.name, b.name) })
	for i := 1; i < len(fields); i++ {
		if fields[i].name == fields[i-1].name {
			panic(fmt.Sprintf("runner: job key cannot encode %s: two fields named %q", t, fields[i].name))
		}
	}
	return func(dst []byte, v reflect.Value) []byte {
		dst = append(dst, '{')
		first := true
		for i := range fields {
			f := &fields[i]
			fv := v.Field(f.index)
			if f.omitEmpty && isEmpty(fv) {
				continue
			}
			if !first {
				dst = append(dst, ',')
			}
			first = false
			dst = f.enc(append(dst, f.key...), fv)
		}
		return append(dst, '}')
	}
}

// isEmpty is encoding/json's omitempty test for the kinds the planner
// supports: a struct is never empty.
func isEmpty(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Slice, reflect.String:
		return v.Len() == 0
	case reflect.Struct:
		return false
	}
	return v.IsZero()
}

// appendString writes s as json.Marshal does, escaping <, >, & and
// U+2028/U+2029 too, except that each byte of invalid UTF-8 becomes a
// raw U+FFFD: json.Marshal writes it as the escape \ufffd, which the
// reference's decode turns into the rune and its re-encode writes raw.
// strings.ToValidUTF8 would fold a run of bad bytes into one U+FFFD
// and so change the key. Plain printable ASCII, which every name in
// the registries is, is copied through.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			// []rune(s) decodes each invalid byte to its own U+FFFD.
			b, err := json.Marshal(string([]rune(s)))
			if err != nil {
				panic("runner: job key: " + err.Error()) // a Go string always marshals
			}
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}
