package runner

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"catch/internal/config"
	"catch/internal/core"
	"catch/internal/stats"
)

// entryJobs are the jobs whose entries testdata/entries holds, as
// PutDisk wrote them before the cache read them with decodeEntry: a
// CATCH single-thread job (TactTimeliness set), a baseline one
// (TactTimeliness nil), a four-core mix and a sampled job (Sample
// set).
func entryJobs() []Job {
	base := config.BaselineExclusive()
	catch := config.WithCATCH(base, "catch")
	sampled := STJob(base, "gcc", 4_000, 1_000)
	sampled.Sample = &SampleSpec{Interval: 500, K: 3}
	return []Job{
		STJob(catch, "mcf", 4_000, 1_000),
		STJob(base, "hmmer", 4_000, 1_000),
		MPJob(catch, []string{"mcf", "lbm", "gcc", "tpcc"}, 2_000, 500),
		sampled,
	}
}

// readEntry returns the committed entry of j.
func readEntry(t testing.TB, j Job) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "entries", fileName(j.Key())))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// checkDecodeMatchesReference fails t unless decodeEntry accepts raw
// and returns exactly what json.Unmarshal does.
func checkDecodeMatchesReference(t testing.TB, what string, raw []byte) []core.Result {
	t.Helper()
	got, err := decodeEntry(raw)
	if err != nil {
		t.Fatalf("%s: decodeEntry: %v", what, err)
	}
	var want []core.Result
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: json.Unmarshal: %v", what, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: decodeEntry differs from json.Unmarshal:\n got %+v\nwant %+v", what, got, want)
	}
	return got
}

// TestCommittedEntriesStillHit reads entries written by PutDisk
// before the cache decoded them in one pass: each must be a disk hit
// holding what json.Unmarshal reads, and PutDisk must write those
// results back byte for byte. So existing cache directories keep
// hitting, and new entries are what older binaries wrote. Each entry
// followed by the newline json.Encoder appends, the one departure
// from json.Marshal's layout the decoder reads, decodes the same.
func TestCommittedEntriesStillHit(t *testing.T) {
	dir := t.TempDir()
	c := NewCache(dir)
	for _, j := range entryJobs() {
		key := j.Key()
		raw := readEntry(t, j)
		want := checkDecodeMatchesReference(t, key, raw)
		checkDecodeMatchesReference(t, key+" and a newline", append(bytes.Clone(raw), '\n'))
		// A copy, since a rejected entry would be quarantined.
		if err := os.WriteFile(filepath.Join(dir, fileName(key)), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		rs, ok := c.GetDisk(key)
		if !ok || !reflect.DeepEqual(rs, want) {
			t.Fatalf("%s: GetDisk hit=%v, or its results differ from json.Unmarshal's", key, ok)
		}
		out := t.TempDir()
		NewCache(out).PutDisk(key, rs)
		written, err := os.ReadFile(filepath.Join(out, fileName(key)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(written, raw) {
			t.Fatalf("%s: PutDisk wrote %d bytes that differ from the committed %d", key, len(written), len(raw))
		}
	}
	if s := c.Stats(); s.BadDisk != 0 {
		t.Fatalf("committed entries counted %d BadDisk", s.BadDisk)
	}
}

// fillResult sets every leaf under v to a distinct non-zero value: k
// counts leaves, str names the string of leaf k, a float is written
// with an exponent by json.Marshal on every other leaf, and every nil
// pointer is allocated. A kind the filler does not know fails the
// test, so a new field shape must be taught here rather than skipped.
func fillResult(t *testing.T, v reflect.Value, k *int, str func(int) string) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if !v.Type().Field(i).IsExported() {
				t.Fatalf("%s has unexported field %s; teach fillResult about it", v.Type(), v.Type().Field(i).Name)
			}
			fillResult(t, v.Field(i), k, str)
		}
		return
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillResult(t, v.Elem(), k, str)
		return
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		fillResult(t, v.Index(0), k, str)
		fillResult(t, v.Index(1), k, str)
		return
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillResult(t, v.Index(i), k, str)
		}
		return
	}
	*k++
	switch n := *k; v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(n) * -1_000_003)
	case reflect.Uint64:
		v.SetUint(uint64(n) * 1_000_000_007)
	case reflect.Float64:
		if n%2 == 0 {
			v.SetFloat(float64(n) * 1.25e-9)
		} else {
			v.SetFloat(float64(n) * 3.5e22)
		}
	case reflect.String:
		v.SetString(str(n))
	default:
		t.Fatalf("a %s leaf has kind %s, which fillResult does not handle; teach it", v.Type(), v.Kind())
	}
}

// TestEntryDecodeCoversEveryResultField is the decoder's counterpart
// of TestJobKeyCoversEveryConfigField: it sets every leaf of a Result
// to a distinct non-zero value, marshals it as PutDisk does, and
// requires decodeEntry to return the same value, and what
// json.Unmarshal returns. A field the decoder skipped, swapped or
// misparsed would come back different. Variants cover Sample and
// TactTimeliness each set and nil, histogram slices nil and empty,
// strings that json.Marshal escapes (<>&, U+2028, quotes, control
// bytes) or repairs (invalid UTF-8, which comes back as U+FFFD and is
// compared with json.Unmarshal's result only), and floats json.Marshal
// writes with an exponent.
func TestEntryDecodeCoversEveryResultField(t *testing.T) {
	escaped := func(k int) string {
		return string(rune('a'+k%26)) + "<>&\u2028\u2029\"\\\x01\b\f\n\r\té€" + strings.Repeat("x", k%5)
	}
	invalid := func(k int) string { return "bad\xff\xfe\xed\xa0\x80" + string(rune('a'+k%26)) }
	for _, tc := range []struct {
		name   string
		str    func(int) string
		edit   func(r *core.Result)
		repair bool // strings hold invalid UTF-8
	}{
		{name: "all set", str: escaped},
		{name: "Sample nil", str: escaped, edit: func(r *core.Result) { r.Sample = nil }},
		{name: "TactTimeliness nil", str: escaped, edit: func(r *core.Result) { r.Hier.TactTimeliness = nil }},
		{name: "histogram slices nil and empty", str: escaped, edit: func(r *core.Result) {
			r.Hier.TactTimeliness = &stats.Histogram{Counts: []uint64{}, Total: 9}
		}},
		{name: "invalid UTF-8", str: invalid, repair: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var rs [2]core.Result
			k := 0
			for i := range rs {
				fillResult(t, reflect.ValueOf(&rs[i]).Elem(), &k, tc.str)
				if tc.edit != nil {
					tc.edit(&rs[i])
				}
			}
			if k < 100 {
				t.Fatalf("only %d leaves filled; the filler is losing coverage", k)
			}
			raw, err := json.Marshal(rs[:])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Contains(raw, []byte("e-")) || !bytes.Contains(raw, []byte("e+")) {
				t.Fatalf("no float was written with an exponent: %.200s", raw)
			}
			got := checkDecodeMatchesReference(t, tc.name, raw)
			if !tc.repair && !reflect.DeepEqual(got, rs[:]) {
				t.Fatalf("decodeEntry does not return the marshaled results:\n got %+v\nwant %+v", got, rs)
			}
		})
	}
}

// TestEntryDecodeRejects pins that an entry departing from
// json.Marshal's layout, beyond the one newline json.Encoder appends,
// is a quarantined miss even where json.Unmarshal would have read it,
// with missing or unknown fields left zero or dropped. Each case edits
// a committed entry once.
func TestEntryDecodeRejects(t *testing.T) {
	job := entryJobs()[0]
	key := job.Key()
	entry := string(readEntry(t, job))
	var indented bytes.Buffer
	if err := json.Indent(&indented, []byte(entry), "", "  "); err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string]string{
		"indented":              indented.String(),
		"two trailing newlines": entry + "\n\n",
		"trailing space":        entry + " ",
		"space after colon":     strings.Replace(entry, `"Insts":`, `"Insts": `, 1),
		"fields reordered":      strings.Replace(entry, `"Category":"ISPEC","Config":"catch"`, `"Config":"catch","Category":"ISPEC"`, 1),
		"field missing":         strings.Replace(entry, `"Mispredicts":46,`, ``, 1),
		"unknown field":         strings.Replace(entry, `"HasL2":true,`, `"HasL2":true,"HasL3":false,`, 1),
		"field name case":       strings.Replace(entry, `"Insts":`, `"insts":`, 1),
		"field repeated":        strings.Replace(entry, `"Insts":4000,`, `"Insts":4000,"Insts":4000,`, 1),
		"integer as float":      strings.Replace(entry, `"Insts":4000,`, `"Insts":4000.0,`, 1),
		"integer overflow":      strings.Replace(entry, `"Insts":4000,`, `"Insts":9223372036854775808,`, 1),
		"negative unsigned":     strings.Replace(entry, `"Loads":908,`, `"Loads":-908,`, 1),
		"leading zero":          strings.Replace(entry, `"Loads":908,`, `"Loads":0908,`, 1),
		"float out of range":    strings.Replace(entry, `"IPC":0.9153318077803204,`, `"IPC":1e400,`, 1),
		"string for number":     strings.Replace(entry, `"Insts":4000,`, `"Insts":"4000",`, 1),
		"array too short":       strings.Replace(entry, `"Messages":[592,592,0,0]`, `"Messages":[592,592,0]`, 1),
		"array too long":        strings.Replace(entry, `"Messages":[592,592,0,0]`, `"Messages":[592,592,0,0,0]`, 1),
		"surrogate escape":      strings.Replace(entry, `"Workload":"mcf"`, `"Workload":"\ud83d\ude00"`, 1),
		"raw invalid UTF-8":     strings.Replace(entry, `"Workload":"mcf"`, "\"Workload\":\"m\xffcf\"", 1),
		"raw control byte":      strings.Replace(entry, `"Workload":"mcf"`, "\"Workload\":\"m\tcf\"", 1),
		"bool as number":        strings.Replace(entry, `"HasL2":true`, `"HasL2":1`, 1),
		"two entries":           entry + entry,
		"object, not a list":    entry[1 : len(entry)-1],
		"truncated":             entry[:len(entry)-1],
		"empty list":            `[]`,
		"null":                  `null`,
		"empty":                 ``,
		"empty result object":   `[{}]`,
	} {
		t.Run(name, func(t *testing.T) {
			if bad == entry {
				t.Fatal("the edit did not apply")
			}
			dir := t.TempDir()
			path := filepath.Join(dir, fileName(key))
			if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
				t.Fatal(err)
			}
			c := NewCache(dir)
			if rs, ok := c.GetDisk(key); ok {
				t.Fatalf("accepted %d results", len(rs))
			}
			if _, err := os.Stat(path + ".corrupt"); err != nil || c.Stats().BadDisk != 1 {
				t.Fatalf("rejected entry not quarantined (%v) or BadDisk %d, want 1", err, c.Stats().BadDisk)
			}
		})
	}
}

// TestEntryDecodeAllocs pins that decoding a one-result entry
// allocates no more objects than json.Unmarshal does.
func TestEntryDecodeAllocs(t *testing.T) {
	raw := readEntry(t, entryJobs()[0])
	decoded := testing.AllocsPerRun(100, func() {
		if _, err := decodeEntry(raw); err != nil {
			t.Fatal(err)
		}
	})
	reference := testing.AllocsPerRun(100, func() {
		var rs []core.Result
		if err := json.Unmarshal(raw, &rs); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocations per decode: decodeEntry %.0f, json.Unmarshal %.0f", decoded, reference)
	if decoded > reference {
		t.Fatalf("decodeEntry allocates %.0f objects per entry, json.Unmarshal %.0f", decoded, reference)
	}
}

// TestPlanDecodeRejects pins the planner's refusal of every kind
// Result's type tree does not use, and of types encoding/json handles
// through a method: a Result field of such a kind panics at package
// initialisation instead of decoding differently from encoding/json.
func TestPlanDecodeRejects(t *testing.T) {
	type inner struct{ A int }
	for name, typ := range map[string]reflect.Type{
		"map":        reflect.TypeFor[struct{ M map[string]int }](),
		"interface":  reflect.TypeFor[struct{ I any }](),
		"complex":    reflect.TypeFor[struct{ C complex128 }](),
		"embedded":   reflect.TypeFor[struct{ inner }](),
		"byte slice": reflect.TypeFor[struct{ B []byte }](),
		"string option": reflect.TypeFor[struct {
			N int `json:",string"`
		}](),
		"duplicate name": reflect.StructOf([]reflect.StructField{
			{Name: "A", Type: reflect.TypeFor[int](), Tag: `json:"a"`},
			{Name: "B", Type: reflect.TypeFor[int](), Tag: `json:"a"`},
		}),
		"text marshaler":   reflect.TypeFor[struct{ L textLevel }](),
		"json unmarshaler": reflect.TypeFor[struct{ L *jsonLevel }](),
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("planDecode(%s) did not panic", typ)
				}
			}()
			planDecode(typ)
		})
	}
}

// jsonLevel is decoded by encoding/json through its UnmarshalJSON.
type jsonLevel uint8

func (l *jsonLevel) UnmarshalJSON(b []byte) error { *l = jsonLevel(len(b)); return nil }

// entrySink keeps BenchmarkEntryDecode's results from being optimized
// away.
var entrySink []core.Result

// BenchmarkEntryDecode decodes a one-result entry, what every disk
// hit of a single-thread job reads, with the one-pass decoder and
// with json.Unmarshal for reference.
func BenchmarkEntryDecode(b *testing.B) {
	raw := readEntry(b, entryJobs()[0])
	b.Run("decodeEntry", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rs, err := decodeEntry(raw)
			if err != nil {
				b.Fatal(err)
			}
			entrySink = rs
		}
	})
	b.Run("json.Unmarshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var rs []core.Result
			if err := json.Unmarshal(raw, &rs); err != nil {
				b.Fatal(err)
			}
			entrySink = rs
		}
	})
}
