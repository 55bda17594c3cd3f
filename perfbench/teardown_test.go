package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// binDir holds the benchmark and server binaries the teardown tests
// run, built once by TestMain from this checkout.
var binDir string

func TestMain(m *testing.M) {
	flag.Parse()
	code := func() int {
		if !testing.Short() {
			dir, err := os.MkdirTemp("", "perfbench-test")
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			defer os.RemoveAll(dir)
			for _, b := range [][]string{
				{".", "perfbench"}, {"../cmd/swserver", "swserver"}, {"../cmd/swrouter", "swrouter"},
			} {
				cmd := exec.Command("go", "build", "-o", filepath.Join(dir, b[1]), b[0])
				if out, err := cmd.CombinedOutput(); err != nil {
					fmt.Fprintf(os.Stderr, "build %s: %v\n%s", b[0], err, out)
					return 1
				}
			}
			binDir = dir
		}
		return m.Run()
	}()
	os.Exit(code)
}

var startedRE = regexp.MustCompile(`started (\S+) pid=(\d+)`)

// serveRun starts the benchmark on the serve workload and returns once
// its timed phase has begun, with the pids it reported starting.
func serveRun(t *testing.T, seconds int) (*exec.Cmd, *bytes.Buffer, map[int]string) {
	t.Helper()
	if binDir == "" {
		t.Skip("teardown tests build and run the whole fleet; skipped with -short")
	}
	cmd := exec.Command(filepath.Join(binDir, "perfbench"), "-workload", "serve", "-seed", "1",
		"-seconds", strconv.Itoa(seconds), "-trace", "0", "-root", t.TempDir(), "-bin", binDir)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	pids := map[int]string{}
	sc := bufio.NewScanner(stderr)
	timed := false
	for !timed && sc.Scan() {
		line := sc.Text()
		if m := startedRE.FindStringSubmatch(line); m != nil {
			pid, _ := strconv.Atoi(m[2])
			pids[pid] = m[1]
		}
		timed = strings.Contains(line, "serve timed phase")
	}
	if !timed {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("benchmark ended before its timed phase; stdout:\n%s", stdout.String())
	}
	go func() {
		for sc.Scan() {
			if m := startedRE.FindStringSubmatch(sc.Text()); m != nil {
				t.Logf("started after the timed phase began: %s", sc.Text())
			}
		}
	}()
	if len(pids) < 2*serveReplicas*serveSlices {
		t.Fatalf("saw %d started processes, want at least %d", len(pids), 2*serveReplicas*serveSlices)
	}
	return cmd, &stdout, pids
}

// assertAllGone waits briefly for every pid to be gone and fails the
// test for each survivor.
func assertAllGone(t *testing.T, pids map[int]string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for pid, name := range pids {
		for running(pid) && time.Now().Before(deadline) {
			time.Sleep(20 * time.Millisecond)
		}
		if running(pid) {
			t.Errorf("%s (pid %d) outlived the benchmark", name, pid)
			syscall.Kill(pid, syscall.SIGKILL)
		}
	}
}

func TestNoProcessSurvivesSIGKILLMidServe(t *testing.T) {
	cmd, _, pids := serveRun(t, 30)
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()
	assertAllGone(t, pids)
}

func TestNoProcessSurvivesSIGINTMidServe(t *testing.T) {
	cmd, stdout, pids := serveRun(t, 30)
	if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err == nil {
		t.Error("interrupted benchmark exited 0")
	}
	if strings.Contains(stdout.String(), `"correct"`) {
		t.Errorf("interrupted benchmark printed a result:\n%s", stdout.String())
	}
	assertAllGone(t, pids)
}

func TestNoProcessSurvivesNormalExit(t *testing.T) {
	cmd, stdout, pids := serveRun(t, 2)
	if err := cmd.Wait(); err != nil {
		t.Fatalf("benchmark failed: %v\n%s", err, stdout.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if !strings.HasPrefix(lines[len(lines)-1], `{"correct":true`) {
		t.Errorf("last line is not a correct result: %s", lines[len(lines)-1])
	}
	assertAllGone(t, pids)
}
