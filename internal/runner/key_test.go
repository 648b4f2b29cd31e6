package runner

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"reflect"
	"sort"
	"testing"

	"catch/internal/cache"
	"catch/internal/config"
)

// referenceJSON is the job key's input as it was first defined:
// json.Marshal, then a decode into generic values and a re-encode with
// every object's keys sorted. appendCanonicalJob must write the same
// bytes; it exists only to skip the round trip.
func referenceJSON(t testing.TB, j *Job) []byte {
	t.Helper()
	raw, err := json.Marshal(j)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	canon, err := CanonicalJSON(raw)
	if err != nil {
		t.Fatalf("canonicalize: %v", err)
	}
	return canon
}

// checkKeyMatchesReference fails t unless the encoder writes the
// reference's bytes for j and Key hashes them.
func checkKeyMatchesReference(t testing.TB, what string, j Job) {
	t.Helper()
	want := referenceJSON(t, &j)
	if got := appendCanonicalJob(nil, &j); !bytes.Equal(got, want) {
		t.Fatalf("%s: encoder differs from the reference:\n got %q\nwant %q", what, got, want)
	}
	sum := sha256.Sum256(want)
	if got := j.Key(); got != hex.EncodeToString(sum[:]) {
		t.Fatalf("%s: Key %s is not the SHA-256 of the canonical JSON", what, got)
	}
}

// CanonicalJSON re-encodes a JSON document with object keys sorted
// recursively and numbers preserved verbatim, so that two encodings of
// the same value hash identically regardless of field order.
func CanonicalJSON(raw []byte) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := writeCanonical(&buf, v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func writeCanonical(buf *bytes.Buffer, v any) error {
	switch x := v.(type) {
	case map[string]any:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		buf.WriteByte('{')
		for i, k := range keys {
			if i > 0 {
				buf.WriteByte(',')
			}
			kb, err := json.Marshal(k)
			if err != nil {
				return err
			}
			buf.Write(kb)
			buf.WriteByte(':')
			if err := writeCanonical(buf, x[k]); err != nil {
				return err
			}
		}
		buf.WriteByte('}')
	case []any:
		buf.WriteByte('[')
		for i, e := range x {
			if i > 0 {
				buf.WriteByte(',')
			}
			if err := writeCanonical(buf, e); err != nil {
				return err
			}
		}
		buf.WriteByte(']')
	case json.Number:
		buf.WriteString(x.String())
	default:
		b, err := json.Marshal(x)
		if err != nil {
			return err
		}
		buf.Write(b)
	}
	return nil
}

// TestJobKeyCoversEveryConfigField is the dynamic counterpart of the
// key-coverage analyzer: it perturbs every reachable field of a Job —
// including every field of the embedded SystemConfig, recursively —
// and asserts the content key changes. A field that does not move the
// key is a stale-hit bug: two jobs differing only in that field would
// collide in the result cache and one would silently get the other's
// numbers.
func TestJobKeyCoversEveryConfigField(t *testing.T) {
	base := STJob(config.BaselineExclusive(), "hmmer", 40_000, 8_000)
	// A fully-populated variant so fields behind nil pointers
	// (Config.Convert, Sample) are perturbed too.
	full := base
	full.Sample = &SampleSpec{Interval: 4_000, K: 3}
	full.Config.Convert = &config.ConvertSpec{ToLat: 10}

	for name, job := range map[string]Job{"base": base, "full": full} {
		t.Run(name, func(t *testing.T) {
			baseKey := job.Key()
			for _, leaf := range collectLeaves(t, reflect.ValueOf(job)) {
				cp := deepCopyJob(t, job)
				leaf.mutate(navigate(reflect.ValueOf(&cp).Elem(), leaf.path))
				if cp.Key() == baseKey {
					t.Errorf("perturbing %s did not change the job key: "+
						"jobs differing only in this field would share a cache entry", leaf.name)
				}
			}
		})
	}
}

// deepCopyJob copies a job through its JSON encoding. Fields the
// encoding drops stay at their zero value in the copy — which is fine:
// the perturbation happens after the copy, and a perturbation the key
// cannot see is exactly what the test reports.
func deepCopyJob(t *testing.T, j Job) Job {
	t.Helper()
	raw, err := json.Marshal(&j)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var out Job
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	return out
}

// pathStep addresses one hop from a Job value toward a leaf field.
type pathStep struct {
	field int  // struct field index, or -1
	index int  // slice index, or -1
	deref bool // follow a pointer
}

// leaf is one perturbable location plus the mutation that perturbs it.
type leaf struct {
	name   string
	path   []pathStep
	mutate func(v reflect.Value)
}

// navigate walks an addressable value along a recorded path.
func navigate(v reflect.Value, path []pathStep) reflect.Value {
	for _, s := range path {
		switch {
		case s.deref:
			v = v.Elem()
		case s.index >= 0:
			v = v.Index(s.index)
		default:
			v = v.Field(s.field)
		}
	}
	return v
}

// collectLeaves enumerates every perturbable location in v. Unexported
// fields are skipped (the key-coverage analyzer rejects them
// statically); any kind the walker does not understand fails the test,
// so new field shapes must be taught here rather than silently skipped.
func collectLeaves(t *testing.T, v reflect.Value) []leaf {
	t.Helper()
	var leaves []leaf
	var walk func(v reflect.Value, path []pathStep, name string)
	walk = func(v reflect.Value, path []pathStep, name string) {
		clone := func(s pathStep) []pathStep {
			return append(append([]pathStep(nil), path...), s)
		}
		switch v.Kind() {
		case reflect.Struct:
			st := v.Type()
			for i := 0; i < st.NumField(); i++ {
				f := st.Field(i)
				if !f.IsExported() {
					continue
				}
				walk(v.Field(i), clone(pathStep{field: i, index: -1}), name+"."+f.Name)
			}
		case reflect.Pointer:
			if v.IsNil() {
				// Presence itself must be part of the key.
				leaves = append(leaves, leaf{
					name: name + " (nil→set)",
					path: path,
					mutate: func(fv reflect.Value) {
						fv.Set(reflect.New(fv.Type().Elem()))
					},
				})
				return
			}
			walk(v.Elem(), clone(pathStep{field: -1, index: -1, deref: true}), name)
		case reflect.Slice:
			leaves = append(leaves, leaf{
				name: name + " (len)",
				path: path,
				mutate: func(fv reflect.Value) {
					fv.Set(reflect.Append(fv, reflect.Zero(fv.Type().Elem())))
				},
			})
			if v.Len() > 0 {
				walk(v.Index(0), clone(pathStep{field: -1, index: 0}), name+"[0]")
			}
		case reflect.Bool:
			leaves = append(leaves, leaf{name, path, func(fv reflect.Value) { fv.SetBool(!fv.Bool()) }})
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			leaves = append(leaves, leaf{name, path, func(fv reflect.Value) { fv.SetInt(fv.Int() + 1) }})
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			leaves = append(leaves, leaf{name, path, func(fv reflect.Value) { fv.SetUint(fv.Uint() + 1) }})
		case reflect.Float32, reflect.Float64:
			leaves = append(leaves, leaf{name, path, func(fv reflect.Value) { fv.SetFloat(fv.Float() + 1) }})
		case reflect.String:
			leaves = append(leaves, leaf{name, path, func(fv reflect.Value) { fv.SetString(fv.String() + "~") }})
		default:
			t.Fatalf("field %s has kind %s the perturbation walker does not handle; teach collectLeaves about it", name, v.Kind())
		}
	}
	walk(v, nil, "Job")
	if len(leaves) < 20 {
		t.Fatalf("only %d perturbable fields found; the walker is losing coverage", len(leaves))
	}
	return leaves
}

// keyShapes are the job shapes the reference comparison perturbs: a
// single-thread job, one with Sample and Convert set, an 8-workload
// job whose strings need escaping or hold invalid UTF-8, and the zero
// Job.
func keyShapes(cfg config.SystemConfig) map[string]Job {
	st := STJob(cfg, "mcf", 40_000, 8_000)
	full := STJob(cfg, "hmmer", 40_000, 8_000)
	full.Sample = &SampleSpec{Interval: 4_000, K: 3}
	full.Config.Convert = &config.ConvertSpec{From: cache.HitLLC, ToLat: config.MemLatApprox, OnlyNonCritical: true}
	odd := MPJob(cfg, []string{"mcf", "bad\xff\xfeutf8", "<&>", "\"\\", "\xed\xa0\x80", "line\u2028sep\u2029", "\ufffd", "ctl\x01\n\t\x7f"}, 20_000, 0)
	odd.Config.Name += "\xc3"
	odd.Config.LLCPolicy = "\x00\x1f<script>"
	return map[string]Job{"st": st, "full": full, "odd": odd, "zero": {}}
}

// TestJobKeyMatchesReference keys every shape of keyShapes on three
// configs, and every single-field perturbation of each that
// TestJobKeyCoversEveryConfigField applies, and requires the encoder
// to write exactly the reference's bytes each time.
func TestJobKeyMatchesReference(t *testing.T) {
	cfgs := []config.SystemConfig{
		config.BaselineExclusive(),
		config.BaselineInclusive(),
		config.WithCATCH(config.NoL2(config.BaselineExclusive(), 6656*config.KB, 13, ""), "nol2-6.5-catch"),
	}
	n := 0
	for _, cfg := range cfgs {
		for shape, job := range keyShapes(cfg) {
			what := cfg.Name + "/" + shape
			checkKeyMatchesReference(t, what, job)
			n++
			for _, leaf := range collectLeaves(t, reflect.ValueOf(job)) {
				cp := deepCopyJob(t, job)
				leaf.mutate(navigate(reflect.ValueOf(&cp).Elem(), leaf.path))
				checkKeyMatchesReference(t, what+" "+leaf.name, cp)
				n++
			}
		}
	}
	t.Logf("%d jobs keyed identically to the reference", n)
}

// TestAppendStringMatchesReference writes every byte value alone
// between two letters, plus multi-byte runes and malformed sequences,
// and requires the string encoder to agree with the reference on each,
// so neither its copy-through path nor its escaping path can drift
// from encoding/json's.
func TestAppendStringMatchesReference(t *testing.T) {
	strs := []string{"", "\u2028", "\u2029", "\ufffd", "\xed\xa0\x80", "\xff\xfe", "\xc3", "é€😀", "\xf0\x9f\x98"}
	for b := 0; b < 256; b++ {
		strs = append(strs, "a"+string([]byte{byte(b)})+"z")
	}
	for _, s := range strs {
		raw, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		want, err := CanonicalJSON(raw)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendString(nil, s); !bytes.Equal(got, want) {
			t.Errorf("appendString(%q) = %q, reference %q", s, got, want)
		}
	}
}

// TestPlanCanonicalRejects pins the planner's refusal of every kind
// Job's type tree does not use: a field of such a kind panics at
// package initialisation instead of silently encoding differently
// from encoding/json.
func TestPlanCanonicalRejects(t *testing.T) {
	type inner struct{ A int }
	for name, typ := range map[string]reflect.Type{
		"float":      reflect.TypeFor[struct{ F float64 }](),
		"map":        reflect.TypeFor[struct{ M map[string]int }](),
		"interface":  reflect.TypeFor[struct{ I any }](),
		"array":      reflect.TypeFor[struct{ A [2]int }](),
		"embedded":   reflect.TypeFor[struct{ inner }](),
		"byte slice": reflect.TypeFor[struct{ B []byte }](),
		"string option": reflect.TypeFor[struct {
			N int `json:",string"`
		}](),
		"duplicate name": reflect.StructOf([]reflect.StructField{
			{Name: "A", Type: reflect.TypeFor[int](), Tag: `json:"a"`},
			{Name: "B", Type: reflect.TypeFor[int](), Tag: `json:"a"`},
		}),
		"text marshaler": reflect.TypeFor[struct{ L textLevel }](),
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("planCanonical(%s) did not panic", typ)
				}
			}()
			planCanonical(typ)
		})
	}
}

// textLevel is encoded by encoding/json through its MarshalText.
type textLevel uint8

func (l textLevel) MarshalText() ([]byte, error) { return []byte{'L', '0' + byte(l)}, nil }

// keySink keeps BenchmarkJobKey's calls from being optimized away.
var keySink string

// BenchmarkJobKey keys a CATCH single-thread job, the key every result
// cache hit and cluster placement computes.
func BenchmarkJobKey(b *testing.B) {
	job := STJob(config.WithCATCH(config.BaselineExclusive(), "catch"), "mcf", 300_000, 60_000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		keySink = job.Key()
	}
}
