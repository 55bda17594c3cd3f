package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"swvec/internal/cluster"
)

// poissonSchedule returns the send offsets of n arrivals of a Poisson
// process of the given rate: independent exponential gaps. The gaps are
// stratified — one from the middle of each of n equal-probability
// strata of the exponential distribution, in seeded random order — so
// every seed offers the same mix of short and long gaps, and with it
// the same burstiness, in a different order. Fixing n keeps the sample
// count, and so the reported percentile, the same on every run.
func poissonSchedule(rng *rand.Rand, rate float64, n int) []time.Duration {
	gaps := make([]float64, n)
	for k := range gaps {
		gaps[k] = -math.Log(1-(float64(k)+0.5)/float64(n)) / rate
	}
	rng.Shuffle(n, func(a, b int) { gaps[a], gaps[b] = gaps[b], gaps[a] })
	out := make([]time.Duration, n)
	var t float64
	for i, g := range gaps {
		t += g
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// openLoop calls fire(i, due) at start+offsets[i] for every i, without
// waiting for earlier requests to finish: independent users, so a
// stalled system still receives its load. fire must not block for
// long. It returns each request's lateness — how long after its due
// time fire was called — and stops early when ctx is done.
func openLoop(ctx context.Context, start time.Time, offsets []time.Duration, fire func(i int, due time.Time)) []time.Duration {
	late := make([]time.Duration, 0, len(offsets))
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	for i, off := range offsets {
		due := start.Add(off)
		if wait := time.Until(due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				return late
			}
		}
		late = append(late, time.Since(due))
		fire(i, due)
	}
	return late
}

// tail is a latency percentile with its sample count.
type tail struct {
	P      float64 // percentile, e.g. 94.7
	Value  float64
	N      int // samples, failed ones included
	Beyond int // samples ranked above the percentile
}

// minBeyond is the number of samples that must lie beyond a reported
// tail percentile.
const minBeyond = 10

// tailPercentile returns the highest percentile with at least
// minBeyond samples beyond it: the nearest-rank value with exactly
// minBeyond samples above, p = 100·(n−minBeyond)/n, but never below the
// median. A percentile that moves with n, rather than a fixed ladder
// (p75, p90, ...), keeps the metric continuous when the sample count of
// a timed run drifts across a rung. Failed requests count as beyond any
// limit: they rank above every success, and a percentile that lands on
// one reports failedValue.
func tailPercentile(ok []float64, failed int, failedValue float64) tail {
	s := append([]float64(nil), ok...)
	sort.Float64s(s)
	n := len(s) + failed
	if n == 0 {
		return tail{}
	}
	rank := n - minBeyond
	if half := (n + 1) / 2; rank < half {
		rank = half
	}
	v := failedValue
	if rank <= len(s) {
		v = s[rank-1]
	}
	return tail{P: 100 * float64(rank) / float64(n), Value: v, N: n, Beyond: n - rank}
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// wireResponse is the union of swserver's and swrouter's replies.
type wireResponse struct {
	cluster.Response
	Shards  *cluster.ShardReport `json:"shards,omitempty"`
	Partial bool                 `json:"partial"`
}

// wireClient pipelines newline-delimited JSON requests over a fixed set
// of connections and matches replies to requests by ID. Requests are
// spread round-robin over the connections.
type wireClient struct {
	conns []*wireConn
	next  atomic.Uint64
	onRep func(id string, resp wireResponse, at time.Time)
	wg    sync.WaitGroup
}

type wireConn struct {
	mu   sync.Mutex
	conn net.Conn
	enc  *json.Encoder
}

// dialWire opens n connections to addr. onRep is called from the
// readers for every reply.
func dialWire(addr string, n int, onRep func(string, wireResponse, time.Time)) (*wireClient, error) {
	c := &wireClient{onRep: onRep}
	for i := 0; i < n; i++ {
		conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			c.close()
			return nil, fmt.Errorf("dial %s: %w", addr, err)
		}
		wc := &wireConn{conn: conn, enc: json.NewEncoder(conn)}
		c.conns = append(c.conns, wc)
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			dec := json.NewDecoder(bufio.NewReader(conn))
			for {
				var resp wireResponse
				if err := dec.Decode(&resp); err != nil {
					return
				}
				c.onRep(resp.ID, resp, time.Now())
			}
		}()
	}
	return c, nil
}

// send writes one request; it is safe for concurrent use.
func (c *wireClient) send(req cluster.Request) error {
	wc := c.conns[(c.next.Add(1)-1)%uint64(len(c.conns))]
	wc.mu.Lock()
	defer wc.mu.Unlock()
	wc.conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
	return wc.enc.Encode(req)
}

// close shuts every connection and waits for the readers.
func (c *wireClient) close() {
	for _, wc := range c.conns {
		wc.conn.Close()
	}
	c.wg.Wait()
}

// exchange sends one request over a fresh connection and waits for its
// reply: the closed-loop call used for warm-up and recorded answers.
func exchange(addr string, req cluster.Request, timeout time.Duration) (wireResponse, error) {
	var resp wireResponse
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return resp, err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(timeout))
	if err := json.NewEncoder(conn).Encode(req); err != nil {
		return resp, err
	}
	if err := json.NewDecoder(bufio.NewReader(conn)).Decode(&resp); err != nil {
		return resp, err
	}
	return resp, nil
}
