// Serve-throughput benchmark: queries/sec against a loaded workspace at
// increasing client concurrency, plus a contention run — the same reads
// while a writer flushes, which snapshot reads keep off the workspace
// lock.
package bench

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"lbtrust/internal/core"
	"lbtrust/internal/datalog"
	"lbtrust/internal/server"
	"lbtrust/internal/workspace"
)

// ServeOptions configures RunServe.
type ServeOptions struct {
	// Base is the number of loaded facts in the served workspace.
	Base int
	// PerClient is the number of queries each client session issues per
	// measured point.
	PerClient int
	// Clients lists the concurrency levels to measure (e.g. 1, 4, 16).
	Clients []int
	// Contention additionally measures reads under a concurrent writer
	// (at the highest client count).
	Contention bool
}

// ServePoint is one measured concurrency level.
type ServePoint struct {
	Clients  int
	Queries  int64
	Duration time.Duration
	QPS      float64
	P50      time.Duration
	P99      time.Duration
}

// ServeContention is the client load re-run with a writer continuously
// committing transactions.
type ServeContention struct {
	Clients       int
	WriterFlushes int64
	ServePoint
}

// ServeResult is the full serve experiment output.
type ServeResult struct {
	Base      int
	PerClient int
	// Scaling holds the writer-free throughput points, snapshot reads.
	Scaling []ServePoint
	// ScalingX is top-concurrency QPS over single-client QPS.
	ScalingX float64
	// Contention is the under-writer run (nil unless requested).
	Contention *ServeContention
}

// contentionWindow is how long the contention run keeps its readers
// going: long enough to overlap dozens of writer flushes, short enough
// for CI.
const contentionWindow = 2 * time.Second

// serveSystemOpts builds a system with a loaded principal (alice,
// RSA-signed says) and a server with the given options in front of it
// (the obs experiment passes an observability bundle through). bob exists
// as a destination for the contention writer's statements.
func serveSystemOpts(base int, opts server.Options) (*core.System, *server.Server, error) {
	sys := core.NewSystem()
	p, err := sys.AddPrincipal("alice")
	if err != nil {
		sys.Close()
		return nil, nil, err
	}
	if _, err := sys.AddPrincipal("bob"); err != nil {
		sys.Close()
		return nil, nil, err
	}
	if err := sys.EstablishRSA("alice"); err != nil {
		sys.Close()
		return nil, nil, err
	}
	if err := p.UseScheme(core.SchemeRSA); err != nil {
		sys.Close()
		return nil, nil, err
	}
	if err := p.Update(func(tx *workspace.Tx) error {
		for i := 0; i < base; i++ {
			t := datalog.NewTuple(
				datalog.Sym(fmt.Sprintf("u%d", i)),
				datalog.Sym(fmt.Sprintf("o%d", i%97)),
				datalog.Sym("read"),
			)
			if err := tx.AssertTuple("perm", t); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		sys.Close()
		return nil, nil, err
	}
	srv, err := server.Serve(sys, "127.0.0.1:0", opts)
	if err != nil {
		sys.Close()
		return nil, nil, err
	}
	return sys, srv, nil
}

// runServePoint drives clients concurrent authenticated sessions, each
// issuing perClient point queries (or, when deadline is positive, as many
// as fit in that window), and aggregates throughput and latency.
func runServePoint(sys *core.System, srv *server.Server, clients, perClient, base int, deadline time.Duration) (ServePoint, error) {
	p, _ := sys.Principal("alice")
	keys := p.Keys()
	sessions := make([]*server.Client, clients)
	for i := range sessions {
		c, err := server.Dial(srv.Addr())
		if err != nil {
			return ServePoint{}, err
		}
		defer c.Close()
		if err := c.Authenticate("alice", keys); err != nil {
			return ServePoint{}, err
		}
		sessions[i] = c
	}
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	lats := make([][]time.Duration, clients)
	start := make(chan struct{})
	for i, c := range sessions {
		wg.Add(1)
		go func(i int, c *server.Client) {
			defer wg.Done()
			lat := make([]time.Duration, 0, perClient)
			<-start
			end := time.Time{}
			if deadline > 0 {
				end = time.Now().Add(deadline)
			}
			for q := 0; deadline > 0 || q < perClient; q++ {
				if deadline > 0 && time.Now().After(end) {
					break
				}
				k := (i*perClient + q) % base
				t0 := time.Now()
				rows, err := c.Query(fmt.Sprintf("perm(u%d, O, M)", k))
				lat = append(lat, time.Since(t0))
				if err != nil {
					errs <- err
					return
				}
				if len(rows) != 1 {
					errs <- fmt.Errorf("bench: perm(u%d) returned %d rows", k, len(rows))
					return
				}
			}
			lats[i] = lat
		}(i, c)
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	elapsed := time.Since(t0)
	select {
	case err := <-errs:
		return ServePoint{}, err
	default:
	}
	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pct := func(p float64) time.Duration {
		if len(all) == 0 {
			return 0
		}
		i := int(p * float64(len(all)-1))
		return all[i]
	}
	total := int64(len(all))
	return ServePoint{
		Clients:  clients,
		Queries:  total,
		Duration: elapsed,
		QPS:      float64(total) / elapsed.Seconds(),
		P50:      pct(0.50),
		P99:      pct(0.99),
	}, nil
}

// RunServe measures serve throughput. The scaling series runs snapshot
// reads with no writer; the contention run (optional) repeats the top
// concurrency level while a writer continuously commits signed says
// batches, exposing what a concurrent flush costs a reader's tail.
func RunServe(opts ServeOptions) (*ServeResult, error) {
	if opts.Base <= 0 {
		opts.Base = 10000
	}
	if opts.PerClient <= 0 {
		opts.PerClient = 200
	}
	if len(opts.Clients) == 0 {
		opts.Clients = []int{1, 4, 16}
	}
	res := &ServeResult{Base: opts.Base, PerClient: opts.PerClient}
	for _, n := range opts.Clients {
		sys, srv, err := serveSystemOpts(opts.Base, server.Options{})
		if err != nil {
			return nil, err
		}
		pt, err := runServePoint(sys, srv, n, opts.PerClient, opts.Base, 0)
		srv.Close()
		sys.Close()
		if err != nil {
			return nil, fmt.Errorf("bench: serve point %d clients: %w", n, err)
		}
		res.Scaling = append(res.Scaling, pt)
	}
	if len(res.Scaling) > 1 && res.Scaling[0].QPS > 0 {
		res.ScalingX = res.Scaling[len(res.Scaling)-1].QPS / res.Scaling[0].QPS
	}
	if opts.Contention {
		arm, err := runContention(opts, opts.Clients[len(opts.Clients)-1])
		if err != nil {
			return nil, err
		}
		res.Contention = &arm
	}
	return res, nil
}

// runContention measures the read load under a continuous writer.
func runContention(opts ServeOptions, clients int) (ServeContention, error) {
	sys, srv, err := serveSystemOpts(opts.Base, server.Options{})
	if err != nil {
		return ServeContention{}, err
	}
	defer func() {
		srv.Close()
		sys.Close()
	}()
	p, _ := sys.Principal("alice")
	stop := make(chan struct{})
	writerDone := make(chan struct{})
	var flushes int64
	go func() {
		defer close(writerDone)
		// A paced writer committing the trust workload's natural flush: a
		// batch of says statements whose exports the RSA scheme signs
		// *inside* the transaction, so each flush holds the workspace lock
		// for the batch's signing duration (milliseconds) while its delta
		// stays a few dozen tuples. Snapshot readers keep answering off
		// the published view meanwhile.
		ticker := time.NewTicker(25 * time.Millisecond)
		defer ticker.Stop()
		seq := 0
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
			}
			batch := make([]string, 16)
			for i := range batch {
				seq++
				batch[i] = fmt.Sprintf("note(%d).", seq)
			}
			if err := p.SayAll("bob", batch); err != nil {
				return
			}
			flushes++
		}
	}()
	// Duration-bound so readers overlap many writer flushes regardless of
	// how fast the machine answers queries.
	pt, err := runServePoint(sys, srv, clients, opts.PerClient, opts.Base, contentionWindow)
	close(stop)
	<-writerDone
	if err != nil {
		return ServeContention{}, fmt.Errorf("bench: contention run: %w", err)
	}
	return ServeContention{Clients: clients, WriterFlushes: flushes, ServePoint: pt}, nil
}
