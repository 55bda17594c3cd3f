package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestHotPathAlloc(t *testing.T) {
	runFixture(t, HotPathAlloc, "hp")
}

func TestLaneWidth(t *testing.T) {
	runFixture(t, LaneWidth, "fix/internal/core")
}

// TestLaneWidthOutOfScope proves the analyzer ignores packages outside
// internal/core and internal/sched: the same seeded source reported
// nothing when loaded under a neutral import path.
func TestLaneWidthOutOfScope(t *testing.T) {
	pkgs := loadFixtures(t, "lanewidth", "fix/internal/core")
	pkgs[0].Path = "fix/other"
	diags, err := Run(pkgs, []*Analyzer{LaneWidth})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		if d.Analyzer == "lanewidth" {
			t.Errorf("out-of-scope package reported: %s: %s", d.Position, d.Message)
		}
	}
}

func TestChanDiscipline(t *testing.T) {
	runFixture(t, ChanDiscipline, "fix/internal/sched")
}

func TestAtomicStats(t *testing.T) {
	runFixture(t, AtomicStats, "fix/internal/metrics", "fix/consumer")
}

// TestBCECheck drives bcecheck through the compiler seam: every
// "bce:<kind>" comment in the fixture becomes one canned diagnostic on
// its line, so hot-function filtering, the allowlist, and suppressions
// are all exercised without invoking the toolchain.
func TestBCECheck(t *testing.T) {
	orig := bceDiagnostics
	bceDiagnostics = cannedBCEDiagnostics
	SetBCEAllowlist(filepath.Join("testdata", "bcecheck", "allowlist.txt"))
	defer func() {
		bceDiagnostics = orig
		SetBCEAllowlist("")
	}()
	runFixture(t, BCECheck, "fix/internal/native")
}

// cannedBCEDiagnostics turns the fixture's bce:<kind> comments into
// check_bce diagnostics.
func cannedBCEDiagnostics(pass *Pass) ([]bceDiag, error) {
	var out []bceDiag
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, kind := range []string{"IsSliceInBounds", "IsInBounds"} {
					if strings.Contains(c.Text, "bce:"+kind) {
						pos := pass.Fset.Position(c.Pos())
						out = append(out, bceDiag{File: pos.Filename, Line: pos.Line, Col: 1, Kind: kind})
						break
					}
				}
			}
		}
	}
	return out, nil
}

// TestBCECheckSeededRegression is the end-to-end proof that the real
// compiler pipeline catches a bounds-check regression: a throwaway
// module with a variable-index hot kernel is loaded and analyzed for
// real (go list, importcfg, go tool compile), and the injected
// IsInBounds must come back as a finding.
func TestBCECheckSeededRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go list and go tool compile")
	}
	dir := t.TempDir()
	kdir := filepath.Join(dir, "internal", "native")
	if err := os.MkdirAll(kdir, 0o755); err != nil {
		t.Fatal(err)
	}
	writeFile := func(path, content string) {
		t.Helper()
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeFile(filepath.Join(dir, "go.mod"), "module bcereg\n\ngo 1.24\n")
	writeFile(filepath.Join(kdir, "kernel.go"), `package native

//sw:hotpath
func Kernel(h []int8, idx int) int8 {
	return h[idx] // seeded regression: the compiler cannot prove this index
}
`)
	pkgs, err := Load(dir, "./...")
	if err != nil {
		t.Fatalf("loading seeded module: %v", err)
	}
	diags, err := Run(pkgs, []*Analyzer{BCECheck})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range diags {
		if d.Analyzer == "bcecheck" && strings.Contains(d.Message, "IsInBounds") && strings.Contains(d.Message, "Kernel") {
			found = true
		}
	}
	if !found {
		t.Fatalf("seeded variable-index regression not caught; diagnostics: %+v", diags)
	}
}

func TestCtxBlock(t *testing.T) {
	runFixture(t, CtxBlock, "fix/internal/sched")
}

// TestCtxBlockOutOfScope: the same goroutine violations under a
// neutral import path report nothing — the cancellation contract binds
// sched and cluster only.
func TestCtxBlockOutOfScope(t *testing.T) {
	pkgs := loadFixtures(t, "ctxblock", "fix/internal/sched")
	pkgs[0].Path = "fix/other"
	diags, err := Run(pkgs, []*Analyzer{CtxBlock})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		if d.Analyzer == "ctxblock" {
			t.Errorf("out-of-scope package reported: %s: %s", d.Position, d.Message)
		}
	}
}

// TestFailpointSite runs under tags=[failpoint], the only
// configuration in which site coverage is provable (the chaos tests
// that reference sites are themselves tag-gated).
func TestFailpointSite(t *testing.T) {
	runFixtureTags(t, FailpointSite, []string{"failpoint"}, "fix/internal/failpoint", "fix/app")
}

// TestFailpointSiteUntagged: without the failpoint tag the orphan-site
// rule must stay quiet (its evidence — the chaos tests — is invisible),
// and the tagged chaos test file must not be loaded at all.
func TestFailpointSiteUntagged(t *testing.T) {
	pkgs := loadFixtures(t, "failpointsite", "fix/internal/failpoint", "fix/app")
	for _, pkg := range pkgs {
		if len(pkg.TestFiles) != 0 {
			t.Fatalf("package %s loaded %d test files without the failpoint tag", pkg.Path, len(pkg.TestFiles))
		}
	}
	diags, err := Run(pkgs, []*Analyzer{FailpointSite})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		if strings.Contains(d.Message, "is not exercised") {
			t.Errorf("orphan-site rule fired without the failpoint tag: %s: %s", d.Position, d.Message)
		}
	}
}

func TestWireCode(t *testing.T) {
	runFixture(t, WireCode, "fix/internal/cluster", "fix/internal/serve", "fix/cmd/swrouter")
}

// TestMalformedSuppressions checks that broken //swlint:ignore comments
// are themselves diagnostics, even with no analyzer enabled.
func TestMalformedSuppressions(t *testing.T) {
	pkgs := loadFixtures(t, "suppression", "sup")
	diags, err := Run(pkgs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2: %+v", len(diags), diags)
	}
	for _, d := range diags {
		if d.Analyzer != "swlint" || !strings.Contains(d.Message, "malformed suppression") {
			t.Errorf("unexpected diagnostic: %+v", d)
		}
		if d.Suppressed {
			t.Errorf("malformed suppression must not suppress itself: %+v", d)
		}
	}
}

// TestLoadRealTree runs the loader and the full suite over this
// repository's own packages, under both tag sets CI enforces: the
// plain build and -tags failpoint (which pulls in the chaos tests the
// failpointsite coverage rule depends on). The tree must be clean of
// unsuppressed findings under both, and every suppression carries a
// reason.
func TestLoadRealTree(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	for _, tags := range [][]string{nil, {"failpoint"}} {
		name := "plain"
		if len(tags) > 0 {
			name = strings.Join(tags, ",")
		}
		t.Run(name, func(t *testing.T) {
			pkgs, err := LoadTags("../..", tags, "./...")
			if err != nil {
				t.Fatalf("loading module: %v", err)
			}
			if len(pkgs) < 10 {
				t.Fatalf("loaded only %d packages, expected the full module", len(pkgs))
			}
			diags, err := Run(pkgs, All())
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range diags {
				if d.Suppressed {
					if d.Reason == "" {
						t.Errorf("suppressed finding without reason: %s: %s", d.Position, d.Message)
					}
					continue
				}
				t.Errorf("unsuppressed finding: %s: [%s] %s", d.Position, d.Analyzer, d.Message)
			}
		})
	}
}
