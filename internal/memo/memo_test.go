package memo_test

import (
	"errors"
	"slices"
	"sync"
	"testing"

	"catch/internal/memo"
)

// TestGroupOutcomes pins the single-caller contract: the first Do
// fills, a repeat is a Hit without calling fill, a failed fill is
// never kept, and Set/Peek/Keys see the same held values.
func TestGroupOutcomes(t *testing.T) {
	var g memo.Group[string, int]
	fills := 0
	fill := func() (int, error) { fills++; return 7, nil }

	if v, out, err := g.Do("a", fill); v != 7 || out != memo.Filled || err != nil {
		t.Fatalf("first Do = (%d, %v, %v), want (7, Filled, nil)", v, out, err)
	}
	if v, out, err := g.Do("a", fill); v != 7 || out != memo.Hit || err != nil || fills != 1 {
		t.Fatalf("repeat Do = (%d, %v, %v) after %d fills, want (7, Hit, nil) after 1", v, out, err, fills)
	}

	boom := errors.New("boom")
	if _, out, err := g.Do("b", func() (int, error) { return 0, boom }); out != memo.Filled || !errors.Is(err, boom) {
		t.Fatalf("failing Do = (%v, %v), want (Filled, boom)", out, err)
	}
	if _, ok := g.Peek("b"); ok {
		t.Fatal("a failed fill was kept")
	}
	if _, out, err := g.Do("b", fill); out != memo.Filled || err != nil {
		t.Fatalf("Do after a failed fill = (%v, %v), want a fresh fill", out, err)
	}

	g.Set("c", 3)
	if v, ok := g.Peek("c"); !ok || v != 3 {
		t.Fatalf("Peek after Set = (%d, %v)", v, ok)
	}
	keys := g.Keys()
	slices.Sort(keys)
	if !slices.Equal(keys, []string{"a", "b", "c"}) {
		t.Fatalf("Keys() = %v", keys)
	}
}

// TestGroupCoalesces runs many callers of one key against a fill that
// blocks until every other caller has arrived: exactly one fills, and
// every caller sees its value.
func TestGroupCoalesces(t *testing.T) {
	var g memo.Group[int, *int]
	const callers = 8
	started, release := make(chan struct{}), make(chan struct{})
	want := new(int)
	fill := func() (*int, error) {
		close(started)
		<-release
		return want, nil
	}

	var wg sync.WaitGroup
	outs := make([]memo.Outcome, callers)
	vals := make([]*int, callers)
	wg.Add(1)
	go func() {
		defer wg.Done()
		vals[0], outs[0], _ = g.Do(1, fill)
	}()
	<-started
	for i := 1; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], outs[i], _ = g.Do(1, fill)
		}(i)
	}
	close(release)
	wg.Wait()

	if outs[0] != memo.Filled {
		t.Fatalf("first caller outcome %v, want Filled", outs[0])
	}
	for i := 1; i < callers; i++ {
		if outs[i] != memo.Coalesced && outs[i] != memo.Hit {
			t.Errorf("caller %d outcome %v, want Coalesced or Hit", i, outs[i])
		}
		if vals[i] != want {
			t.Errorf("caller %d got a different value", i)
		}
	}
}
