package main

import (
	"fmt"
	"runtime"
	"time"

	"ringlang/internal/bits"
	"ringlang/internal/core"
	"ringlang/internal/lang"
	"ringlang/internal/ring"
	"ringlang/internal/server"
)

// ringlangLayer measures client construction, and Client.Recognize against
// core.Run with the same options word by word, so the facade's own time is
// the difference.
func (t *tracer) ringlangLayer() error {
	var builds []time.Duration
	for _, k := range t.keys {
		for i := 0; i < 50; i++ {
			start := time.Now()
			c, err := t.newClient(k, nil)
			builds = append(builds, time.Since(start))
			if err != nil {
				return err
			}
			c.Close()
		}
	}
	t.put("ringlang.new_client_us", us(percentile(builds, 0.5)), "us")

	clients, err := t.newClientSet()
	if err != nil {
		return err
	}
	defer clients.close()
	pc := core.NewPrefixCache(server.DefaultPrefixCacheBytes)
	coreRun := func(r *request, w lang.Word) error {
		k := t.key(r)
		_, err := core.Run(k.rec, w, core.RunOptions{Engine: k.engine, Ctx: t.ctx, Prefix: pc})
		return err
	}
	warmWords, warmReqs := wordsOf(t.warm)
	for i, w := range warmWords {
		if _, err := clients[t.key(warmReqs[i])].Recognize(t.ctx, w); err != nil {
			return err
		}
		if err := coreRun(warmReqs[i], w); err != nil {
			return err
		}
	}
	ws, rs := wordsOf(t.reqs)
	var recognize, run time.Duration
	for i, w := range ws {
		steps := [2]func() error{
			func() error {
				start := t.log.now()
				_, err := clients[t.key(rs[i])].Recognize(t.ctx, w)
				end := t.log.now()
				t.log.add("ringlang.recognize", start, end, -1, int32(i))
				recognize += end - start
				return err
			},
			func() error {
				start := t.log.now()
				err := coreRun(rs[i], w)
				end := t.log.now()
				t.log.add("core.run", start, end, -1, int32(i))
				run += end - start
				return err
			},
		}
		for s := range steps {
			if err := steps[(i+s)%2](); err != nil {
				return err
			}
		}
	}
	n := float64(len(ws))
	t.put("ringlang.recognize_us", us(recognize)/n, "us")
	t.record["ringlang_self_us_per_word"] = us(recognize-run) / n
	return nil
}

// coreLayer measures node construction and reuse, prefix capture and
// resume, and the allocations of core.Run on the workload's served path.
func (t *tracer) coreLayer() error {
	ws, rs := wordsOf(t.reqs)
	n := float64(len(ws))

	// NewNodes, and RebuildNodes onto a ring built for an equal-length word.
	var build, rebuild time.Duration
	type slot struct {
		rec core.Recognizer
		n   int
	}
	prev := make(map[slot][]ring.Node)
	for i, w := range ws {
		k := t.key(rs[i])
		start := t.log.now()
		nodes, err := k.rec.NewNodes(w)
		end := t.log.now()
		if err != nil {
			return err
		}
		t.log.add("core.newnodes", start, end, -1, int32(i))
		build += end - start
		rb, ok := k.rec.(core.NodeRebuilder)
		if !ok {
			return fmt.Errorf("%s cannot rebuild nodes", k.rec.Name())
		}
		s := slot{k.rec, len(w)}
		if prev[s] == nil {
			prev[s] = nodes
		}
		start = t.log.now()
		_, err = rb.RebuildNodes(w, prev[s])
		end = t.log.now()
		if err != nil {
			return err
		}
		t.log.add("core.rebuild", start, end, -1, int32(i))
		rebuild += end - start
	}
	t.put("core.newnodes_us", us(build)/n, "us")
	t.put("core.rebuild_us", us(rebuild)/n, "us")

	// Capture: a missed run with a prefix cache against the same run without
	// one, alternating which goes first.
	var with, without time.Duration
	for i, w := range ws {
		k := t.key(rs[i])
		runs := [2]func() error{
			func() error {
				pc := core.NewPrefixCache(server.DefaultPrefixCacheBytes)
				start := t.log.now()
				_, err := core.Run(k.rec, w, core.RunOptions{Engine: k.engine, Ctx: t.ctx, Prefix: pc})
				end := t.log.now()
				t.log.add("core.run(capture)", start, end, -1, int32(i))
				with += end - start
				return err
			},
			func() error {
				start := t.log.now()
				_, err := core.Run(k.rec, w, core.RunOptions{Engine: k.engine, Ctx: t.ctx})
				end := t.log.now()
				t.log.add("core.run(cold)", start, end, -1, int32(i))
				without += end - start
				return err
			},
		}
		for s := range runs {
			if err := runs[(i+s)%2](); err != nil {
				return err
			}
		}
	}
	t.put("core.capture_us", us(with-without)/n, "us")
	t.record["core_run_cold_us_per_word"] = us(without) / n

	// Resume: store a word's checkpoints, then time a sibling that differs
	// from letter 7n/8 on, resumed from the 7n/8 checkpoint under sequential.
	seq := ring.NewSequentialEngine()
	var resume time.Duration
	for i, w := range ws {
		k := t.key(rs[i])
		pc := core.NewPrefixCache(server.DefaultPrefixCacheBytes)
		if _, err := core.Run(k.rec, w, core.RunOptions{Engine: seq, Ctx: t.ctx, Prefix: pc}); err != nil {
			return err
		}
		sib := sibling(k.rec, w)
		before := pc.Stats()
		start := t.log.now()
		_, err := core.Run(k.rec, sib, core.RunOptions{Engine: seq, Ctx: t.ctx, Prefix: pc})
		end := t.log.now()
		if err != nil {
			return err
		}
		if pc.Stats().PartialHits != before.PartialHits+1 {
			return fmt.Errorf("resume replay: %s sibling of %d letters did not resume from a checkpoint", k.rec.Name(), len(w))
		}
		t.log.add("core.resume", start, end, -1, int32(i))
		resume += end - start
	}
	t.put("core.resume_us", us(resume)/n, "us")

	// Allocations per core.Run on the served path: as Client.Recognize calls
	// it for single words, as a pool worker does for batches.
	warmWords, warmReqs := wordsOf(t.warm)
	var run func(r *request, w lang.Word) error
	if t.workload == coldBatch {
		workers := newWorkerStates()
		run = func(r *request, w lang.Word) error {
			_, err := workers.run(t.ctx, t.key(r), w)
			return err
		}
	} else {
		pc := core.NewPrefixCache(server.DefaultPrefixCacheBytes)
		run = func(r *request, w lang.Word) error {
			k := t.key(r)
			_, err := core.Run(k.rec, w, core.RunOptions{Engine: k.engine, Ctx: t.ctx, Prefix: pc})
			return err
		}
	}
	for i, w := range warmWords {
		if err := run(warmReqs[i], w); err != nil {
			return err
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i, w := range ws {
		if err := run(rs[i], w); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&m1)
	t.put("core.allocs_per_run", float64(m1.Mallocs-m0.Mallocs)/n, "count")
	return nil
}

// sibling returns w with letter 7n/8 changed to another letter of the
// language's alphabet: a family member of w.
func sibling(rec core.Recognizer, w lang.Word) lang.Word {
	s := w.Clone()
	i := len(s) * 7 / 8
	for _, l := range rec.Language().Alphabet() {
		if l != s[i] {
			s[i] = l
			break
		}
	}
	return s
}

// ringLayer times RunWith on prebuilt nodes, plain and with the scheduler
// and every node wrapped in spans, word by word, and splits the delivery
// time into the scheduler, the nodes and the loop's own remainder.
func (t *tracer) ringLayer() error {
	ws, rs := wordsOf(t.reqs)
	dt := &deliveryTracer{log: t.log}
	type engines struct {
		plain           ring.StatefulEngine
		wrapped         ring.StatefulEngine
		plainSt, wrapSt *ring.RunState
	}
	es := make(map[*replayKey]*engines)
	for _, k := range t.keys {
		plain, ok := k.engine.(ring.StatefulEngine)
		if !ok {
			return fmt.Errorf("engine %s keeps no run state", k.engine.Name())
		}
		factory := ring.NewFIFOScheduler
		if k.sched.name == "random" {
			seed := k.sched.seed
			factory = func() ring.Scheduler { return ring.NewRandomScheduler(seed) }
		}
		wrapped := ring.NewScheduledEngine("traced-"+k.sched.name, func() ring.Scheduler {
			return &tracedScheduler{inner: factory(), t: dt}
		})
		es[k] = &engines{plain: plain, wrapped: wrapped, plainSt: ring.NewRunState(), wrapSt: ring.NewRunState()}
	}
	var shells []tracedNode
	var wrappedNodes []ring.Node
	var plain, traced time.Duration
	var deliveries, bitsTotal int64
	for i, w := range ws {
		k := t.key(rs[i])
		e := es[k]
		cfg := ring.Config{Mode: k.rec.Mode(), Initiators: ring.LeaderOnly, RequireVerdict: true, Ctx: t.ctx}
		runs := [2]func() error{
			func() error {
				nodes, err := k.rec.NewNodes(w)
				if err != nil {
					return err
				}
				start := t.log.now()
				res, err := e.plain.RunWith(e.plainSt, cfg, nodes)
				end := t.log.now()
				if err != nil {
					return err
				}
				t.log.add("ring.runwith", start, end, -1, int32(i))
				plain += end - start
				bitsTotal += int64(res.Stats.Bits)
				return nil
			},
			func() error {
				nodes, err := k.rec.NewNodes(w)
				if err != nil {
					return err
				}
				if cap(shells) < len(nodes) {
					shells = make([]tracedNode, len(nodes))
					wrappedNodes = make([]ring.Node, len(nodes))
				}
				for j, nd := range nodes {
					shells[j] = tracedNode{inner: nd, t: dt}
					wrappedNodes[j] = &shells[j]
				}
				receives := dt.calls[callReceive]
				start := t.log.now()
				dt.parent, dt.req = t.log.add("ring.runwith(traced)", start, start, -1, int32(i)), int32(i)
				_, err = e.wrapped.RunWith(e.wrapSt, cfg, wrappedNodes[:len(nodes)])
				end := t.log.now()
				if dt.parent >= 0 {
					t.log.spans[dt.parent].end = end
				}
				traced += end - start
				deliveries += dt.calls[callReceive] - receives
				return err
			},
		}
		for s := range runs {
			if err := runs[(i+s)%2](); err != nil {
				return err
			}
		}
	}
	d := float64(deliveries)
	perDelivery := float64(plain.Nanoseconds()) / d
	sched := float64((dt.estimate(callPush) + dt.estimate(callNext)).Nanoseconds()) / d
	node := float64((dt.estimate(callStart) + dt.estimate(callReceive)).Nanoseconds()) / d
	t.put("ring.ns_per_delivery", perDelivery, "ns")
	t.put("ring.sched_ns_per_delivery", sched, "ns")
	t.put("ring.node_ns_per_delivery", node, "ns")
	t.put("ring.loop_self_ns_per_delivery", perDelivery-sched-node, "ns")
	t.put("ring.deliveries_per_word", d/float64(len(ws)), "count")
	t.put("ring.bits_per_word", float64(bitsTotal)/float64(len(ws)), "count")
	t.put("trace.overhead_ratio", float64(traced)/float64(plain), "ratio")
	if cold, ok := t.record["core_run_cold_us_per_word"].(float64); ok {
		t.record["core_self_us_per_word"] = cold - t.m["core.newnodes_us"].Value - us(plain)/float64(len(ws))
	}
	return nil
}

// bitsLayer times the counter codec at the widths the replayed words' ring
// sizes need.
func (t *tracer) bitsLayer() {
	ws, _ := wordsOf(t.reqs)
	const perWord = 64
	var w bits.Writer
	var enc, dec time.Duration
	ops := 0
	for _, word := range ws {
		n := uint64(len(word))
		width := bits.UintWidth(n)
		w.Reset()
		start := time.Now()
		for v := uint64(0); v < perWord; v++ {
			w.WriteUint(v*n/perWord, width)
		}
		enc += time.Since(start)
		r := bits.NewReader(w.BitString())
		start = time.Now()
		for v := 0; v < perWord; v++ {
			if _, err := r.ReadUint(width); err != nil {
				panic(err) // reads exactly what was written
			}
		}
		dec += time.Since(start)
		ops += perWord
	}
	t.put("bits.encode_ns", float64(enc.Nanoseconds())/float64(ops), "ns")
	t.put("bits.decode_ns", float64(dec.Nanoseconds())/float64(ops), "ns")
}
