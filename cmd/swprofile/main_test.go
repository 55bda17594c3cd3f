package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestKernelArms builds swprofile once and runs every -kernel name on
// a small workload: each must exit 0 and print its Skylake report
// header, and an unknown name must exit 1.
func TestKernelArms(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "swprofile")
	if out, err := exec.Command("go", "build", "-o", bin, "swvec/cmd/swprofile").CombinedOutput(); err != nil {
		t.Fatalf("building swprofile: %v\n%s", err, out)
	}
	small := []string{"-qlen", "40", "-dlen", "60", "-db", "4"}
	for _, k := range []string{"pair8", "pair16", "pair16w", "pair32", "batch8", "batch16", "diag16", "scan16", "striped16", "striped8"} {
		out, err := exec.Command(bin, append([]string{"-kernel", k}, small...)...).CombinedOutput()
		if err != nil {
			t.Errorf("-kernel %s: %v\n%s", k, err, out)
			continue
		}
		if header := "-- " + k + " qlen=40 on Skylake"; !strings.Contains(string(out), header) {
			t.Errorf("-kernel %s: output lacks %q:\n%s", k, header, out)
		}
	}
	out, err := exec.Command(bin, append([]string{"-kernel", "nope"}, small...)...).CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Errorf("-kernel nope: err %v, want exit status 1\n%s", err, out)
	}
}
