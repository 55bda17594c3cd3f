package main

import (
	"bufio"
	"net"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestSpawnedShardsDieWithRouter SIGKILLs a built `swrouter -spawn 2`:
// no shutdown code runs, so only the parent-death signal can stop its
// shards. Within 10 s nothing may accept connections at the shard
// addresses its event=shard_profile lines named.
func TestSpawnedShardsDieWithRouter(t *testing.T) {
	swserver := buildSwserver(t)
	router := filepath.Join(t.TempDir(), "swrouter")
	if out, err := exec.Command("go", "build", "-o", router, "swvec/cmd/swrouter").CombinedOutput(); err != nil {
		t.Fatalf("building swrouter: %v\n%s", err, out)
	}
	cmd := exec.Command(router, "-listen", "127.0.0.1:0", "-spawn", "2", "-swserver-bin", swserver, "-gen-db", "40")
	// Its own process group, which the shards inherit, so the cleanup can
	// reap any survivors even when the test fails.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)
		cmd.Wait()
	})

	// The router relays its shards' log lines, listen lines included,
	// so its own announcement is told apart by the shard count.
	profileRE := regexp.MustCompile(`event=shard_profile .*replicas="([^"]+)"`)
	routerListenRE := regexp.MustCompile(`event=listen addr=\S+ shards=`)
	var shards []string
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		if m := profileRE.FindStringSubmatch(sc.Text()); m != nil {
			shards = append(shards, strings.Split(m[1], ",")...)
		}
		if routerListenRE.MatchString(sc.Text()) {
			break
		}
	}
	if len(shards) != 2 {
		t.Fatalf("router announced shards %v, want 2", shards)
	}
	go func() {
		for sc.Scan() {
		}
	}()

	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, addr := range shards {
		for {
			c, err := net.DialTimeout("tcp", addr, time.Second)
			if err != nil {
				break
			}
			c.Close()
			if time.Now().After(deadline) {
				t.Fatalf("shard %s still accepting 10s after the router was killed", addr)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
}
