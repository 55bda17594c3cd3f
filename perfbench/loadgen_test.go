package main

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestPoissonScheduleIsSeededAndSorted(t *testing.T) {
	const rate, n = 50.0, 2000
	a := poissonSchedule(rand.New(rand.NewSource(7)), rate, n)
	b := poissonSchedule(rand.New(rand.NewSource(7)), rate, n)
	c := poissonSchedule(rand.New(rand.NewSource(8)), rate, n)
	if len(a) != n {
		t.Fatalf("%d offsets, want %d", len(a), n)
	}
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, offset %d differs: %v vs %v", i, a[i], b[i])
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("offsets not sorted at %d", i)
		}
		if a[i] <= 0 || a[i] > time.Duration(float64(n)/rate*float64(time.Second)) {
			t.Fatalf("offset %v outside the schedule span", a[i])
		}
		same = same && a[i] == c[i]
	}
	if same {
		t.Fatal("different seeds gave the same schedule")
	}
	// Poisson gaps: mean 1/rate, coefficient of variation about 1.
	var sum, sq float64
	for i := 1; i < n; i++ {
		g := (a[i] - a[i-1]).Seconds()
		sum += g
		sq += g * g
	}
	m := sum / (n - 1)
	cv := math.Sqrt(sq/(n-1)-m*m) / m
	if math.Abs(m*rate-1) > 0.1 || math.Abs(cv-1) > 0.15 {
		t.Fatalf("gap mean %.4fs (want %.4fs), cv %.2f (want ~1)", m, 1/rate, cv)
	}
}

func TestOpenLoopTimesFromDueAndReportsLateness(t *testing.T) {
	offsets := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	start := time.Now().Add(5 * time.Millisecond)
	var dues []time.Time
	late := openLoop(context.Background(), start, offsets, func(i int, due time.Time) {
		dues = append(dues, due)
		if i == 0 {
			// A stalled send must not delay the schedule's due times,
			// only show up as lateness of the requests behind it.
			time.Sleep(35 * time.Millisecond)
		}
	})
	if len(dues) != len(offsets) || len(late) != len(offsets) {
		t.Fatalf("fired %d, lateness %d, want %d", len(dues), len(late), len(offsets))
	}
	for i, d := range dues {
		if !d.Equal(start.Add(offsets[i])) {
			t.Fatalf("request %d due %v, want start+%v", i, d.Sub(start), offsets[i])
		}
		if late[i] < 0 {
			t.Fatalf("request %d negative lateness %v", i, late[i])
		}
	}
	if late[1] < 20*time.Millisecond || late[3] < 5*time.Millisecond {
		t.Fatalf("stall not reported as lateness: %v", late)
	}
}

func TestOpenLoopStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	late := openLoop(ctx, time.Now(), []time.Duration{0, time.Hour}, func(int, time.Time) {})
	if len(late) != 1 {
		t.Fatalf("fired %d requests after cancel, want 1", len(late))
	}
}

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		name       string
		ok         []float64
		failed     int
		wantRank   int
		wantV      float64
		wantBeyond int
	}{
		{"1000 samples give p99", seq(1000), 0, 990, 990, 10},
		{"200 samples give p95", seq(200), 0, 190, 190, 10},
		{"199 samples move smoothly below p95", seq(199), 0, 189, 189, 10},
		{"40 samples give p75", seq(40), 0, 30, 30, 10},
		{"too few stop at the median", seq(12), 0, 6, 6, 6},
		{"failures rank beyond every success", seq(95), 5, 90, 90, 10},
		{"a percentile on a failure reports the limit", seq(85), 15, 90, 1000, 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := len(tc.ok) + tc.failed
			got := tailPercentile(tc.ok, tc.failed, 1000)
			wantP := 100 * float64(tc.wantRank) / float64(n)
			if got.P != wantP || got.Value != tc.wantV || got.Beyond != tc.wantBeyond || got.N != n {
				t.Fatalf("got %+v, want p%g=%g with %d beyond of %d", got, wantP, tc.wantV, tc.wantBeyond, n)
			}
		})
	}
}
