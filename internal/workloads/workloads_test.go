package workloads

import (
	"testing"

	"catch/internal/trace"
)

func TestSeventyWorkloads(t *testing.T) {
	all := All()
	if len(all) != 70 {
		t.Fatalf("study list has %d workloads, want 70", len(all))
	}
	names := map[string]bool{}
	for _, w := range all {
		if names[w.WName] {
			t.Fatalf("duplicate workload %q", w.WName)
		}
		names[w.WName] = true
		if w.Seed == 0 {
			t.Fatalf("%s has zero seed", w.WName)
		}
	}
	for _, must := range []string{"mcf", "hmmer", "povray", "namd", "gromacs", "tpcc", "libquantum"} {
		if !names[must] {
			t.Fatalf("paper workload %q missing", must)
		}
	}
}

func TestCategoriesCovered(t *testing.T) {
	byCat := ByCategory()
	for _, cat := range Categories {
		if len(byCat[cat]) < 10 {
			t.Fatalf("category %s has only %d workloads", cat, len(byCat[cat]))
		}
	}
	if len(byCat[CatISpec]) != 12 {
		t.Fatalf("ISPEC count %d, want 12 (SPEC INT 2006)", len(byCat[CatISpec]))
	}
}

func TestEveryWorkloadGenerates(t *testing.T) {
	var in trace.Inst
	for _, w := range All() {
		g := w.NewGen()
		loads := 0
		for i := 0; i < 3000; i++ {
			if !g.Next(&in) {
				t.Fatalf("%s: stream ended", w.WName)
			}
			if in.Op == trace.OpLoad {
				loads++
			}
		}
		if loads == 0 {
			t.Fatalf("%s: no loads in 3000 instructions", w.WName)
		}
	}
}

func TestEveryWorkloadDeterministic(t *testing.T) {
	var a, b trace.Inst
	for _, w := range All() {
		g1, g2 := w.NewGen(), w.NewGen()
		for i := 0; i < 500; i++ {
			g1.Next(&a)
			g2.Next(&b)
			if a != b {
				t.Fatalf("%s: divergence at %d", w.WName, i)
			}
		}
	}
}

// TestByName: every workload of All round-trips through ByName's
// index (same name, category and seed, and the same instruction
// stream), a caller's change to the copy it got leaves the index as
// it was, and an unknown name misses.
func TestByName(t *testing.T) {
	var a, b trace.Inst
	for _, w := range All() {
		got, ok := ByName(w.WName)
		if !ok {
			t.Fatalf("%s missing", w.WName)
		}
		if got.WName != w.WName || got.WCategory != w.WCategory || got.Seed != w.Seed {
			t.Fatalf("ByName(%q) = %s/%s seed %d, want %s/%s seed %d",
				w.WName, got.WName, got.WCategory, got.Seed, w.WName, w.WCategory, w.Seed)
		}
		g1, g2 := w.NewGen(), got.NewGen()
		for i := 0; i < 500; i++ {
			g1.Next(&a)
			g2.Next(&b)
			if a != b {
				t.Fatalf("%s: ByName's workload diverges from All's at instruction %d", w.WName, i)
			}
		}
	}
	got, _ := ByName("mcf")
	got.Seed++
	if again, _ := ByName("mcf"); again.Seed == got.Seed {
		t.Fatal("changing a workload ByName returned changed its index")
	}
	if _, ok := ByName("not-a-workload"); ok {
		t.Fatal("invented workload found")
	}
}

func TestStudyList(t *testing.T) {
	if n := len(StudyList(10)); n != 10 {
		t.Fatalf("StudyList(10) = %d", n)
	}
	if n := len(StudyList(0)); n != 70 {
		t.Fatalf("StudyList(0) = %d", n)
	}
	if n := len(StudyList(1000)); n != 70 {
		t.Fatalf("StudyList(1000) = %d", n)
	}
	// The reduced list must span several categories.
	cats := map[string]bool{}
	for _, w := range StudyList(10) {
		cats[w.WCategory] = true
	}
	if len(cats) < 3 {
		t.Fatalf("StudyList(10) covers only %d categories", len(cats))
	}
}

func TestMixes(t *testing.T) {
	mixes := Mixes()
	if len(mixes) != 60 {
		t.Fatalf("mix count %d, want 60", len(mixes))
	}
	rate4 := 0
	for _, m := range mixes {
		for _, p := range m.Parts {
			if p.WName == "" {
				t.Fatalf("mix %s has an empty slot", m.Name)
			}
		}
		if m.Parts[0].WName == m.Parts[1].WName &&
			m.Parts[1].WName == m.Parts[2].WName &&
			m.Parts[2].WName == m.Parts[3].WName {
			rate4++
		}
	}
	if rate4 != 30 {
		t.Fatalf("RATE-4 mixes = %d, want 30", rate4)
	}
}

func TestMixGens(t *testing.T) {
	m := Mixes()[0]
	gens := m.Gens()
	if len(gens) != 4 {
		t.Fatalf("Gens returned %d", len(gens))
	}
	var in trace.Inst
	for i, g := range gens {
		if !g.Next(&in) {
			t.Fatalf("mix gen %d dead", i)
		}
	}
}

func TestWorkloadsHaveBoundedFootprint(t *testing.T) {
	// Prewarm regions must fit comfortably on die (< 16MB total each),
	// or prewarming would thrash the LLC it populates.
	for _, w := range All() {
		g := w.NewGen()
		pw, ok := g.(trace.Prewarmer)
		if !ok {
			continue
		}
		var total uint64
		for _, r := range pw.PrewarmRegions() {
			total += r.Size
		}
		if total > 16<<20 {
			t.Fatalf("%s prewarms %d bytes", w.WName, total)
		}
	}
}
