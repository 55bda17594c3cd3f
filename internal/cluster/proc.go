package cluster

import (
	"bufio"
	"fmt"
	"os/exec"
	"regexp"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// Proc is one locally spawned shard server process.
type Proc struct {
	// Shard is the shard index the process serves; Replica is which of
	// the shard's replicas this process is (0-based, in spawn order —
	// not failover rank, which ShardMap.ReplicaOrder assigns); Addr is
	// the loopback address it announced.
	Shard   int
	Replica int
	Addr    string

	cmd      *exec.Cmd
	scanDone chan struct{}
	waitOnce sync.Once
	waitErr  error
}

// SpawnOptions configures a local shard fleet.
type SpawnOptions struct {
	// Bin is the swserver binary to run.
	Bin string
	// Shards is the cluster size; each process gets -shard-index i
	// -shard-count Shards and loads only its consistent-hash slice.
	Shards int
	// Replicas spawns this many identical processes per shard (default
	// 1). Replicas of a shard differ only in port; they load the same
	// slice. Processes come back replica-major — shards 0..S-1 of
	// replica 0, then of replica 1, ... — matching the address layout
	// GroupReplicas expects.
	Replicas int
	// GenDB serves the deterministic synthetic database of this size
	// (every process regenerates it from the fixed seed and slices it
	// locally, so no database files change hands); DBPath serves a
	// FASTA file instead. Exactly one must be set.
	GenDB  int
	DBPath string
	// ExtraArgs are appended to every shard's command line.
	ExtraArgs []string
	// ReadyTimeout bounds the wait for a shard to announce its listen
	// address (default 30s).
	ReadyTimeout time.Duration
	// Logf receives each shard's log lines, prefixed with the shard
	// index; nil discards them.
	Logf func(format string, args ...any)
}

// listenRE extracts the announced address from swserver's structured
// "event=listen addr=..." log line.
var listenRE = regexp.MustCompile(`event=listen addr=(\S+)`)

// SpawnShards starts one swserver shard process per shard on loopback
// port 0 (the kernel picks free ports; the announced address is parsed
// from the shard's structured startup log). On any failure the already
// started processes are killed before returning.
func SpawnShards(opt SpawnOptions) ([]*Proc, error) {
	if opt.Shards < 1 {
		return nil, fmt.Errorf("cluster: spawn needs at least 1 shard")
	}
	if (opt.GenDB > 0) == (opt.DBPath != "") {
		return nil, fmt.Errorf("cluster: spawn needs exactly one of GenDB and DBPath")
	}
	reps := opt.Replicas
	if reps == 0 {
		reps = 1
	}
	if reps < 1 {
		return nil, fmt.Errorf("cluster: spawn needs at least 1 replica, got %d", reps)
	}
	ready := opt.ReadyTimeout
	if ready <= 0 {
		ready = 30 * time.Second
	}
	procs := make([]*Proc, 0, opt.Shards*reps)
	fail := func(err error) ([]*Proc, error) {
		for _, p := range procs {
			p.Kill()
		}
		return nil, err
	}
	for r := 0; r < reps; r++ {
		for i := 0; i < opt.Shards; i++ {
			args := []string{
				"-listen", "127.0.0.1:0",
				"-shard-index", strconv.Itoa(i),
				"-shard-count", strconv.Itoa(opt.Shards),
			}
			if opt.GenDB > 0 {
				args = append(args, "-gen-db", strconv.Itoa(opt.GenDB))
			} else {
				args = append(args, "-db", opt.DBPath)
			}
			args = append(args, opt.ExtraArgs...)
			p, err := spawnOne(opt.Bin, i, r, args, ready, opt.Logf)
			if err != nil {
				return fail(fmt.Errorf("cluster: shard %d replica %d: %w", i, r, err))
			}
			procs = append(procs, p)
		}
	}
	return procs, nil
}

func spawnOne(bin string, shard, replica int, args []string, ready time.Duration, logf func(string, ...any)) (*Proc, error) {
	cmd := exec.Command(bin, args...)
	// Linux sends the parent-death signal when the *thread* that forked
	// the shard exits, not the process: spawn from a goroutine that is
	// not locked to a thread it lets die, or the shard is killed early.
	dieWithParent(cmd)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &Proc{Shard: shard, Replica: replica, cmd: cmd, scanDone: make(chan struct{})}
	addrCh := make(chan string, 1)
	go func() {
		defer close(p.scanDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if m := listenRE.FindStringSubmatch(line); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
			if logf != nil {
				logf("shard%d.%d: %s", shard, replica, line)
			}
		}
	}()
	select {
	case addr := <-addrCh:
		p.Addr = addr
		return p, nil
	case <-p.scanDone:
		// The shard closed its log without announcing: it has exited,
		// say on a bad flag. Report that now, not after the timeout.
		return nil, fmt.Errorf("exited before announcing its listen address: %v", p.Wait())
	case <-time.After(ready):
		p.Kill()
		return nil, fmt.Errorf("no listen announcement within %s", ready)
	}
}

// Kill SIGKILLs the process and reaps it; safe to call repeatedly and
// after the process already died.
func (p *Proc) Kill() {
	if p.cmd.Process != nil {
		p.cmd.Process.Kill()
	}
	p.Wait()
}

// Stop asks for a graceful shutdown (SIGTERM — swserver answers its
// queued requests first) and reaps the process.
func (p *Proc) Stop() error {
	if p.cmd.Process != nil {
		p.cmd.Process.Signal(syscall.SIGTERM)
	}
	return p.Wait()
}

// Wait reaps the process and joins the log scanner; idempotent.
func (p *Proc) Wait() error {
	p.waitOnce.Do(func() {
		p.waitErr = p.cmd.Wait()
		<-p.scanDone
	})
	return p.waitErr
}
