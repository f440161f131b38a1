package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"openwf/internal/auction"
	"openwf/internal/backlog"
	"openwf/internal/clock"
	"openwf/internal/community"
	"openwf/internal/core"
	"openwf/internal/daemon"
	"openwf/internal/discovery"
	"openwf/internal/model"
	"openwf/internal/proto"
	"openwf/internal/schedule"
	"openwf/internal/service"
	"openwf/internal/space"
	"openwf/internal/transport"
	"openwf/internal/transport/inmem"
	"openwf/internal/transport/tcpnet"
)

// Probes are tight loops over one layer's public API, on inputs built from
// the same seed as the workloads. They characterise a layer in isolation;
// the workloads then show what that costs in composition.

// probeBudget is how long each probe loop runs.
const probeBudget = 100 * time.Millisecond

// loop calls f repeatedly for about probeBudget and returns the mean
// nanoseconds and heap allocations per call.
func loop(f func()) (nsPerOp, allocsPerOp float64) {
	f() // warm pools and lazily built state
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	n := 0
	for batch := 1; ; batch *= 2 {
		for i := 0; i < batch; i++ {
			f()
		}
		n += batch
		if time.Since(start) >= probeBudget {
			break
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	return float64(elapsed.Nanoseconds()) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// timedLoop is loop for bodies that must keep part of each call out of
// the measurement: f returns the time it wants counted.
func timedLoop(f func() time.Duration) (nsPerOp float64) {
	f()
	var counted time.Duration
	n := 0
	for start := time.Now(); time.Since(start) < probeBudget; n++ {
		counted += f()
	}
	return float64(counted.Nanoseconds()) / float64(n)
}

// runProbes measures every probe metric; the key is the metric's name.
func runProbes(ctx context.Context, seed int64) (map[string]float64, error) {
	out := make(map[string]float64)
	for _, p := range []func(context.Context, int64, map[string]float64) error{
		probeCore, probeHost, probeAuction, probeSchedule, probeProto,
		probeDiscovery, probeInmem, probeTCP, probeBacklog,
	} {
		if err := p(ctx, seed, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// probeCore constructs sim_serial's pool over sim_serial's knowhow, pooled
// in one store: the construction algorithm with no community around it.
func probeCore(ctx context.Context, seed int64, out map[string]float64) error {
	in, err := newSimSerialInputs(seed)
	if err != nil {
		return err
	}
	frags, err := in.scenario.Fragments()
	if err != nil {
		return err
	}
	store, err := core.NewStore(frags...)
	if err != nil {
		return err
	}
	pool := core.NewWorkspacePool(store)
	i := 0
	var cerr error
	ns, allocs := loop(func() {
		if _, err := pool.Construct(ctx, in.pool[i%len(in.pool)]); err != nil {
			cerr = err
		}
		i++
	})
	out["core.construct_us"], out["core.construct_allocs"] = ns/1000, allocs
	return cerr
}

// probeHost times Host.Call of a FragmentQuery between two hosts on the
// zero-latency in-memory network: dispatcher, fragment manager, codec and
// reply routing for one round trip.
func probeHost(ctx context.Context, seed int64, out map[string]float64) error {
	_, frags, problem, err := chainProblem("p", chainLen)
	if err != nil {
		return err
	}
	comm, err := community.New(community.Options{Seed: seed},
		community.HostSpec{ID: hostAddr(0)},
		community.HostSpec{ID: hostAddr(1), Fragments: frags})
	if err != nil {
		return err
	}
	defer comm.Close()
	h, _ := comm.Host(hostAddr(0))
	var cerr error
	ns, _ := loop(func() {
		reply, err := h.Call(ctx, hostAddr(1), "probe/1", proto.FragmentQuery{Labels: problem.Triggers}, 5*time.Second)
		if err != nil {
			cerr = err
		} else if fr, ok := reply.(proto.FragmentReply); !ok || len(fr.Fragments) != 1 {
			cerr = fmt.Errorf("host probe: unexpected reply %v", reply)
		}
	})
	out["host.call_rtt_us"] = ns / 1000
	return cerr
}

// chainMetas returns auction metadata for the probe chain, windows a
// minute each starting an hour out.
func chainMetas(tasks []model.Task, base time.Time) []proto.TaskMeta {
	metas := make([]proto.TaskMeta, len(tasks))
	for i, t := range tasks {
		start := base.Add(time.Duration(i) * time.Minute)
		metas[i] = proto.TaskMeta{Task: t.ID, Mode: t.Mode, Inputs: t.Inputs, Outputs: t.Outputs, Start: start, End: start.Add(time.Minute)}
	}
	return metas
}

// probeAuction times the passive auction state machines: a participant
// answering a six-task batched call for bids, converting a hold on award,
// and an auctioneer deciding six tasks from three providers' bid batches.
func probeAuction(_ context.Context, _ int64, out map[string]float64) error {
	tasks, _, _, err := chainProblem("p", chainLen)
	if err != nil {
		return err
	}
	clk := clock.New()
	svcs := service.NewManager(clk)
	for _, t := range tasks {
		if err := svcs.Register(service.Registration{Descriptor: service.Descriptor{Task: t.ID, Specialization: 0.5}}); err != nil {
			return err
		}
	}
	sched := schedule.NewManager(clk, space.Static{}, schedule.Preferences{})
	part := auction.NewParticipant(clk, svcs, sched, 0)
	metas := chainMetas(tasks, time.Now().Add(time.Hour))
	batch := proto.CallForBidsBatch{Metas: metas}
	var perr error

	out["auction.bid_batch_us"] = timedLoop(func() time.Duration {
		start := time.Now()
		reply := part.HandleCallForBidsBatch("probe/bid", batch)
		d := time.Since(start)
		if len(reply.Bids) != len(metas) {
			perr = fmt.Errorf("auction probe: %d bids for %d tasks", len(reply.Bids), len(metas))
		}
		part.ReleaseSession("probe/bid")
		return d
	}) / 1000

	out["auction.award_us"] = timedLoop(func() time.Duration {
		part.HandleCallForBidsBatch("probe/award", batch)
		start := time.Now()
		for _, meta := range metas {
			if _, ack := part.HandleAward("probe/award", proto.Award{Meta: meta}); !ack.OK {
				perr = fmt.Errorf("auction probe: award refused: %s", ack.Reason)
			}
		}
		d := time.Since(start)
		for _, meta := range metas {
			sched.Remove("probe/award", meta.Task)
		}
		return d
	}) / 1000 / float64(len(metas))

	members := []proto.Addr{hostAddr(1), hostAddr(2), hostAddr(3)}
	var bids proto.BidBatch
	for _, meta := range metas {
		bids.Bids = append(bids.Bids, proto.Bid{Task: meta.Task, ServicesOffered: len(metas), Specialization: 0.5, Deadline: time.Now().Add(time.Hour)})
	}
	ns, _ := loop(func() {
		auc, err := auction.NewAuctioneer(members, metas)
		if err != nil {
			perr = err
			return
		}
		now := time.Now()
		for _, o := range auc.StartBatched() {
			auc.HandleBidBatch(o.To, bids, now)
		}
		if !auc.Done() {
			perr = errors.New("auction probe: undecided after every provider bid")
		}
	})
	out["auction.decide_us"] = ns / 1000
	return perr
}

// probeSchedule times the calendar with 256 commitments already on it:
// the hold → commit → remove cycle of one allocated task from one
// goroutine, the same cycle from nproc goroutines whose windows overlap
// each other and straddle band boundaries (with the share of holds that
// lose to an earlier one), and the read-only CanCommit.
func probeSchedule(_ context.Context, _ int64, out map[string]float64) error {
	clk := clock.New()
	sched := schedule.NewManager(clk, space.Static{}, schedule.Preferences{})
	base := time.Now().Add(time.Hour).Truncate(time.Minute)
	far := time.Now().Add(24 * time.Hour)
	window := func(task string, start time.Time) proto.TaskMeta {
		return proto.TaskMeta{Task: model.TaskID(task), Start: start, End: start.Add(time.Minute)}
	}
	for i := 0; i < 256; i++ {
		meta := window(fmt.Sprintf("pre%03d", i), base.Add(time.Duration(i)*time.Minute))
		if _, err := sched.Hold("probe/pre", meta, far); err != nil {
			return err
		}
		if _, err := sched.CommitHeld("probe/pre", meta.Task, far); err != nil {
			return err
		}
	}
	free := base.Add(300 * time.Minute)
	// cycle reports whether the hold won its slot; losing to an earlier
	// hold is an outcome, anything else an error.
	cycle := func(wf string, meta proto.TaskMeta) (bool, error) {
		if _, err := sched.Hold(wf, meta, far); err != nil {
			if errors.Is(err, schedule.ErrSlotBusy) {
				return false, nil
			}
			return false, err
		}
		_, err := sched.CommitHeld(wf, meta.Task, far)
		sched.Remove(wf, meta.Task)
		return true, err
	}
	var serr error
	one := window("one", free)
	out["schedule.hold_commit_remove_ns"], _ = loop(func() {
		if _, err := cycle("probe/one", one); err != nil {
			serr = err
		}
	})
	out["schedule.can_commit_ns"], _ = loop(func() {
		if _, err := sched.CanCommit(one); err != nil {
			serr = err
		}
	})
	if serr != nil {
		return serr
	}

	// Goroutine g's j-th window starts half a minute after its previous
	// one, offset by a quarter minute per goroutine: neighbours overlap,
	// and every window crosses a minute boundary.
	workers := runtime.NumCPU()
	var attempts, busy atomic.Int64
	errs := make([]error, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			wf := fmt.Sprintf("probe/par%d", g)
			for j := 0; time.Since(start) < probeBudget && errs[g] == nil; j++ {
				at := free.Add(time.Duration(g)*15*time.Second + time.Duration(j%8)*30*time.Second + 30*time.Second)
				attempts.Add(1)
				won, err := cycle(wf, window("par", at))
				if !won {
					busy.Add(1)
				}
				errs[g] = err
			}
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start)
	out["schedule.hold_commit_remove_par_ns"] = float64(elapsed.Nanoseconds()) * float64(workers) / float64(attempts.Load())
	out["schedule.hold_busy_share"] = float64(busy.Load()) / float64(attempts.Load())
	return errors.Join(errs...)
}

// probeProto times EncodeTo + Decode of the envelopes an Initiate and an
// Execute put on the wire, and records their encoded size.
func probeProto(_ context.Context, seed int64, out map[string]float64) error {
	in, err := newSimSerialInputs(seed)
	if err != nil {
		return err
	}
	frags, err := in.scenario.Fragments()
	if err != nil {
		return err
	}
	tasks, _, _, err := chainProblem("p", chainLen)
	if err != nil {
		return err
	}
	metas := chainMetas(tasks, time.Now().Add(time.Hour))
	var bids proto.BidBatch
	for _, meta := range metas {
		bids.Bids = append(bids.Bids, proto.Bid{Task: meta.Task, ServicesOffered: chainLen, Specialization: 0.5, Deadline: meta.Start})
	}
	payload := make([]byte, payloadBytes)
	rand.New(rand.NewSource(seed)).Read(payload)
	bodies := map[string]proto.Body{
		"fragment-reply":      proto.FragmentReply{Fragments: frags[:4]},
		"call-for-bids-batch": proto.CallForBidsBatch{Metas: metas},
		"bid-batch":           bids,
		"award":               proto.Award{Meta: metas[0]},
		"label-transfer-4k":   proto.LabelTransfer{Label: tasks[0].Outputs[0], Data: payload, Producer: hostAddr(1)},
	}
	var perr error
	var buf bytes.Buffer
	for _, kind := range protoKinds {
		env := proto.Envelope{From: hostAddr(0), To: hostAddr(1), ReqID: 7, Workflow: "host00/1", Body: bodies[kind]}
		ns, allocs := loop(func() {
			buf.Reset()
			if err := proto.EncodeTo(&buf, env); err != nil {
				perr = err
				return
			}
			if _, err := proto.Decode(buf.Bytes()); err != nil {
				perr = err
			}
		})
		out["proto.roundtrip_ns."+kind] = ns
		out["proto.allocs."+kind] = allocs
		out["proto.bytes."+kind] = float64(buf.Len())
	}
	return perr
}

// probeDiscovery times the capability index with 32 members advertised:
// the routing read an engine sweep makes, and the write an advertisement
// causes.
func probeDiscovery(_ context.Context, _ int64, out map[string]float64) error {
	idx := discovery.New(clock.New(), 0)
	candidates := make([]proto.Addr, wideHosts)
	labels := make([][]model.LabelID, wideHosts)
	offered := make([][]model.TaskID, wideHosts)
	for i := range candidates {
		candidates[i] = hostAddr(i)
		labels[i] = []model.LabelID{model.LabelID(fmt.Sprintf("l%02d", i)), model.LabelID(fmt.Sprintf("m%02d", i))}
		offered[i] = []model.TaskID{model.TaskID(fmt.Sprintf("t%02d", i)), model.TaskID(fmt.Sprintf("u%02d", i))}
		idx.ObserveAdvertise(candidates[i], labels[i], offered[i])
	}
	want := []model.TaskID{"t03", "t07", "t11", "t19", "t23", "t29"}
	var derr error
	out["discovery.select_ns"], _ = loop(func() {
		if sel, ok := idx.SelectByTasks(candidates, want); !ok || len(sel) != len(want) {
			derr = fmt.Errorf("discovery probe: selected %d of %d", len(sel), len(want))
		}
	})
	i := 0
	out["discovery.observe_ns"], _ = loop(func() {
		idx.ObserveAdvertise(candidates[i%wideHosts], labels[i%wideHosts], offered[i%wideHosts])
		i++
	})
	return derr
}

// sendProbe measures a transport through nothing but transport.Endpoint:
// the round trip of an echoed FragmentQuery between two endpoints, and
// one-way sends from nproc goroutines on distinct links, timed until the
// last one is delivered. attach creates an endpoint for addr.
func sendProbe(ctx context.Context, attach func(proto.Addr, transport.Handler) (transport.Endpoint, error)) (rttNs, sendNs float64, err error) {
	query := proto.Envelope{ReqID: 1, Workflow: "probe/1", Body: proto.FragmentQuery{Labels: []model.LabelID{"l00"}}}
	got := make(chan struct{}, 1)
	a, err := attach("a", func(proto.Envelope) { got <- struct{}{} })
	if err != nil {
		return 0, 0, err
	}
	var b transport.Endpoint
	ready := make(chan struct{})
	b, err = attach("b", func(env proto.Envelope) {
		<-ready
		_ = b.Send(ctx, "a", proto.Envelope{ReqID: env.ReqID, Workflow: env.Workflow, Body: proto.FeasibilityReply{}})
	})
	if err != nil {
		return 0, 0, err
	}
	close(ready)
	var perr error
	rttNs, _ = loop(func() {
		if err := a.Send(ctx, "b", query); err != nil {
			perr = err
			return
		}
		select {
		case <-got:
		case <-time.After(5 * time.Second):
			perr = errors.New("transport probe: echo timed out")
		}
	})
	if perr != nil {
		return 0, 0, perr
	}

	workers := runtime.NumCPU()
	const perWorker = 2000
	var delivered atomic.Int64
	all := make(chan struct{})
	senders := make([]transport.Endpoint, workers)
	for g := range senders {
		if senders[g], err = attach(proto.Addr(fmt.Sprintf("s%d", g)), func(proto.Envelope) {}); err != nil {
			return 0, 0, err
		}
		if _, err = attach(proto.Addr(fmt.Sprintf("r%d", g)), func(proto.Envelope) {
			if delivered.Add(1) == int64(workers*perWorker) {
				close(all)
			}
		}); err != nil {
			return 0, 0, err
		}
	}
	// One envelope per link first, so connections exist before timing.
	for g, s := range senders {
		if err := s.Send(ctx, proto.Addr(fmt.Sprintf("r%d", g)), query); err != nil {
			return 0, 0, err
		}
	}
	for delivered.Load() < int64(workers) {
		time.Sleep(time.Millisecond)
	}
	delivered.Store(0)
	var wg sync.WaitGroup
	errs := make([]error, workers)
	start := time.Now()
	for g, s := range senders {
		wg.Add(1)
		go func(g int, s transport.Endpoint) {
			defer wg.Done()
			to := proto.Addr(fmt.Sprintf("r%d", g))
			for i := 0; i < perWorker && errs[g] == nil; i++ {
				errs[g] = s.Send(ctx, to, query)
			}
		}(g, s)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return 0, 0, err
	}
	select {
	case <-all:
	case <-time.After(10 * time.Second):
		return 0, 0, fmt.Errorf("transport probe: %d of %d sends delivered", delivered.Load(), workers*perWorker)
	}
	sendNs = float64(time.Since(start).Nanoseconds()) / float64(workers*perWorker)
	return rttNs, sendNs, nil
}

func probeInmem(ctx context.Context, seed int64, out map[string]float64) error {
	net := inmem.NewNetwork(inmem.WithSeed(seed))
	defer net.Close()
	rtt, send, err := sendProbe(ctx, net.Endpoint)
	out["inmem.call_rtt_us"], out["inmem.send_par_ns"] = rtt/1000, send
	return err
}

func probeTCP(ctx context.Context, _ int64, out map[string]float64) error {
	registry := make(map[proto.Addr]string)
	var trs []*tcpnet.Transport
	defer func() {
		for _, tr := range trs {
			tr.Close()
		}
	}()
	attach := func(addr proto.Addr, h transport.Handler) (transport.Endpoint, error) {
		tr, hostport, err := tcpnet.Listen(addr, h)
		if err != nil {
			return nil, err
		}
		trs = append(trs, tr)
		registry[addr] = hostport
		for _, t := range trs {
			t.SetRegistry(registry)
		}
		return tr, nil
	}
	rtt, send, err := sendProbe(ctx, attach)
	out["tcpnet.call_rtt_us"], out["tcpnet.send_par_ns"] = rtt/1000, send
	return err
}

// probeBacklog times one request through the daemon's admission queue.
func probeBacklog(ctx context.Context, _ int64, out map[string]float64) error {
	q := backlog.New[int](daemon.DefaultBacklog)
	var berr error
	out["backlog.submit_next_ns"], _ = loop(func() {
		if err := q.Submit(backlog.Normal, 1); err != nil {
			berr = err
			return
		}
		if _, _, err := q.Next(ctx); err != nil {
			berr = err
		}
	})
	return berr
}
