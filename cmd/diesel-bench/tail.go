package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	"diesel/internal/client"
	"diesel/internal/cluster"
	"diesel/internal/core"
	"diesel/internal/epoch"
	"diesel/internal/objstore"
	"diesel/internal/obs"
)

// tailExp measures what the epoch reader's tail-latency controls buy on a
// real stack with an injected straggler: every 50th object-store read
// takes 10x the modeled latency (one slow disk read in fifty), and the
// per-group stall distribution is compared across an un-faulted baseline,
// the faulted plain reader, and the faulted reader with hedging,
// deadlines and a reorder window on. The acceptance shape: hedged p99
// within ~2x the un-faulted baseline, while the plain faulted reader eats
// the full straggler latency.
func tailExp(cluster.Params) {
	fmt.Println("== tail: hedged+reordered epoch reads vs a 1-in-50 10x-slow store read ==")
	throttle := &objstore.Throttled{Latency: 2 * time.Millisecond}
	dep, err := core.Deploy(core.Config{Throttle: throttle})
	if err != nil {
		log.Fatalf("tail: deploy: %v", err)
	}
	defer dep.Close()

	const (
		dataset   = "bench-tail"
		numFiles  = 512
		fileSize  = 4 << 10
		slowEvery = 50
		slowExtra = 18 * time.Millisecond // 2ms base -> 20ms: a 10x read
	)
	wcl, err := client.Connect(client.Options{
		User: "bench", Servers: dep.ServerAddrs(), Dataset: dataset,
		ChunkTarget: 16 << 10,
	})
	if err != nil {
		log.Fatalf("tail: connect: %v", err)
	}
	payload := make([]byte, fileSize)
	for i := range numFiles {
		if err := wcl.DefaultDataset().Put(fmt.Sprintf("cls%02d/img%04d.jpg", i%8, i), payload); err != nil {
			log.Fatalf("tail: put: %v", err)
		}
	}
	if err := wcl.DefaultDataset().Flush(); err != nil {
		log.Fatalf("tail: flush: %v", err)
	}
	wcl.Close()

	cl, err := client.Connect(client.Options{
		User: "bench", Servers: dep.ServerAddrs(), Dataset: dataset,
	})
	if err != nil {
		log.Fatalf("tail: connect: %v", err)
	}
	defer cl.Close()
	snap, err := cl.DefaultDataset().DownloadSnapshot()
	if err != nil {
		log.Fatalf("tail: snapshot: %v", err)
	}

	// compute models the training step between samples (the GPU work the
	// pipeline hides group fetches behind). With it, a healthy window=2
	// pipeline fully hides the ~2.5ms group fetch (so baseline stalls are
	// scheduler jitter), while a 20ms straggler still blows through the
	// window — exactly the exposure hedging is supposed to cap. Sleep
	// overshoot (timer slack) only adds hiding, never stall.
	const compute = 250 * time.Microsecond

	// One run = one epoch at window=2; stall samples are the durations of
	// the Next calls that crossed a group boundary (where the consumer
	// actually waits on the pipeline).
	run := func(faulted bool, opts ...epoch.Option) (stalls []time.Duration, total time.Duration) {
		if faulted {
			throttle.SetSlowEvery(slowEvery, slowExtra)
			defer throttle.SetSlowEvery(0, 0)
		}
		plan, err := cl.DefaultDataset().ShufflePlan(7, 1)
		if err != nil {
			log.Fatalf("tail: shuffle: %v", err)
		}
		r := epoch.NewReader(plan, snap, epoch.NewClientSource(cl.DefaultDataset(), snap, 4),
			append([]epoch.Option{epoch.WithWindow(2)}, opts...)...)
		defer r.Close()
		begin := time.Now()
		files, lastGroup := 0, -1
		for {
			start := time.Now()
			s, err := r.Next()
			if err != nil {
				break
			}
			if s.Group != lastGroup {
				stalls = append(stalls, time.Since(start))
				lastGroup = s.Group
			}
			files++
			time.Sleep(compute)
		}
		total = time.Since(begin)
		if err := r.Err(); err != nil {
			log.Fatalf("tail: epoch: %v", err)
		}
		if files != numFiles {
			log.Fatalf("tail: served %d of %d files", files, numFiles)
		}
		return stalls, total
	}

	q := func(stalls []time.Duration, p float64) time.Duration {
		s := append([]time.Duration(nil), stalls...)
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		i := int(p * float64(len(s)))
		if i >= len(s) {
			i = len(s) - 1
		}
		return s[i]
	}

	counter := func(name string) float64 {
		for _, m := range obs.Default().Export() {
			if m.Name == name {
				return m.Value
			}
		}
		return 0
	}

	tailOpts := []epoch.Option{
		epoch.WithHedge(nil),
		epoch.WithHedgeDelayFloor(500 * time.Microsecond),
		epoch.WithGroupDeadline(150 * time.Millisecond),
		epoch.WithReorderWindow(2),
	}

	run(false) // warm connections and caches so the baseline tail is steady-state

	hedges0, wins0 := counter("diesel_epoch_hedges_total"), counter("diesel_epoch_hedge_wins_total")
	fmt.Printf("%-26s %10s %10s %10s %12s\n", "configuration", "p50 stall", "p99 stall", "max stall", "epoch time")
	base, baseTotal := run(false)
	basep99 := q(base, 0.99)
	fmt.Printf("%-26s %10v %10v %10v %12v\n", "no fault (baseline)",
		q(base, 0.50).Round(time.Microsecond), basep99.Round(time.Microsecond),
		q(base, 1).Round(time.Microsecond), baseTotal.Round(time.Millisecond))

	plain, plainTotal := run(true)
	fmt.Printf("%-26s %10v %10v %10v %12v  (p99 %.1fx baseline)\n", "1-in-50 slow, plain",
		q(plain, 0.50).Round(time.Microsecond), q(plain, 0.99).Round(time.Microsecond),
		q(plain, 1).Round(time.Microsecond), plainTotal.Round(time.Millisecond),
		float64(q(plain, 0.99))/float64(basep99))

	hedged, hedgedTotal := run(true, tailOpts...)
	fmt.Printf("%-26s %10v %10v %10v %12v  (p99 %.1fx baseline)\n", "1-in-50 slow, hedged",
		q(hedged, 0.50).Round(time.Microsecond), q(hedged, 0.99).Round(time.Microsecond),
		q(hedged, 1).Round(time.Microsecond), hedgedTotal.Round(time.Millisecond),
		float64(q(hedged, 0.99))/float64(basep99))
	fmt.Printf("hedges issued %d, won %d (reissue via same servers after adaptive delay, floor 500µs)\n",
		int(counter("diesel_epoch_hedges_total")-hedges0),
		int(counter("diesel_epoch_hedge_wins_total")-wins0))
}
