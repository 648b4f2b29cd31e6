package lint

import (
	"strings"
	"testing"
)

func TestSnapshotCoverageFixture(t *testing.T) {
	runFixtureTest(t, "snapcov.txt", []*Analyzer{NewSnapshotCoverage(newStateEngine())})
}

func TestResetCoverageFixture(t *testing.T) {
	runFixtureTest(t, "resetcov.txt", []*Analyzer{NewResetCoverage(newStateEngine(),
		ResetCoverageConfig{Packages: []string{"catch/sim"}})})
}

func TestKeyCoverageFixture(t *testing.T) {
	runFixtureTest(t, "keycov.txt", []*Analyzer{NewKeyCoverage(newStateEngine())})
}

// TestKeyCoverageEncoderFixture: a keyfn that hashes a //catch:keyenc
// encoder's output gets the encoder's argument walked like a
// json.Marshal argument.
func TestKeyCoverageEncoderFixture(t *testing.T) {
	runFixtureTest(t, "keyenc.txt", []*Analyzer{NewKeyCoverage(newStateEngine())})
}

// TestAnnotationHygieneFixture asserts by substring rather than want
// comments: a reasonless annotation cannot carry an inline want — the
// want text would parse as its reason and erase the finding.
func TestAnnotationHygieneFixture(t *testing.T) {
	diags, _ := lintFixture(t, "anno.txt", []*Analyzer{NewAnnotationHygiene()})
	wantSubstrs := []string{
		"unknown annotation //catch:frobnicate",
		"//catch:nosnap requires a reason",
		"//catch:keyneutral requires a reason",
	}
	if len(diags) != len(wantSubstrs) {
		t.Fatalf("got %d diagnostics, want %d:\n%s", len(diags), len(wantSubstrs), formatDiags(diags))
	}
	for _, substr := range wantSubstrs {
		found := false
		for _, d := range diags {
			if strings.Contains(d.Message, substr) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no diagnostic with substring %q in:\n%s", substr, formatDiags(diags))
		}
	}
}
