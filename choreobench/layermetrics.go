package main

// layerMetrics assembles the per-layer metrics of a traced run. A
// timing is read from the timed phase when the workload's own ops
// produced it there, else from the probes; an exact count (unit
// "count") is read from the fixed op count on the recovery store, else
// from the probes, so it never depends on how far a timed loop got.
func (b *bench) layerMetrics(rep *report) map[string]metric {
	tr := b.tr
	out := map[string]metric{}
	timing := []int{phaseMain, phaseProbe, phaseSlice, phaseSetup}
	counted := []int{phaseSlice, phaseProbe, phaseMain}
	p50 := func(name, unit string) {
		out[name] = metric{tr.pick(name, timing...).median(), unit}
	}
	count := func(name string) {
		out[name] = metric{tr.pick(name, counted...).mean(), "count"}
	}

	// server: handler and wire spans per route class, joined by ID.
	b.serverMetrics(out)

	// store
	p50("store.check_cached_us", "us")
	p50("store.check_uncached_us", "us")
	p50("store.evolve_us", "us")
	p50("store.stats_us", "us")
	hits, misses := b.adjusted(rep, func(d statsDelta) (float64, float64) { return float64(d.consHits), float64(d.consMisses) },
		replayConsHits, replayConsMisses)
	out["store.consistency_hits"] = metric{hits, "lookups"}
	out["store.consistency_misses"] = metric{misses, "lookups"}
	out["store.consistency_hit_ratio"] = metric{ratio(hits, hits+misses), "ratio"}
	vhits, vmisses := b.adjusted(rep, func(d statsDelta) (float64, float64) { return float64(d.viewHits), float64(d.viewMisses) },
		replayViewLookups, "")
	out["store.view_hit_ratio"] = metric{ratio(vhits, vhits+vmisses), "ratio"}

	// change, mapping, afsa, core
	p50("change.apply_us", "us")
	p50("mapping.infer_registry_us", "us")
	p50("mapping.derive_us", "us")
	count("mapping.public_states")
	p50("afsa.view_us", "us")
	p50("afsa.equivalent_us", "us")
	p50("afsa.intersect_us", "us")
	p50("afsa.emptiness_us", "us")
	count("afsa.product_states")
	p50("afsa.determinize_us", "us")
	p50("core.classify_us", "us")
	p50("core.plan_us", "us")
	p50("core.suggest_us", "us")
	count("core.suggestions_per_evolve")

	// instance, migrate, ingest
	p50("instance.checker_build_us", "us")
	p50("instance.check_ns_per_instance", "ns")
	p50("instance.step_ns_per_event", "ns")
	p50("migrate.sweep_ms", "ms")
	out["migrate.stranded_ratio"] = metric{tr.pick("migrate.stranded_ratio", counted...).mean(), "ratio"}
	count("migrate.swept_instances")
	p50("ingest.submit_us", "us")
	count("ingest.lanes_per_batch")
	for _, p := range []int{phaseMain, phaseProbe} {
		if d := rep.stats[p]; d.events+d.rejected > 0 {
			out["ingest.rejected_ratio"] = metric{ratio(float64(d.rejected), float64(d.events+d.rejected)), "ratio"}
			out["ingest.online_migrations"] = metric{float64(d.online), "instances"}
			break
		}
	}

	// journal
	count("journal.records_per_op")
	out["journal.bytes_per_op"] = metric{tr.pick("journal.bytes_per_op", phaseSlice).mean(), "bytes"}
	p50("journal.append_us", "us")
	out["journal.replay_records_per_s"] = metric{float64(rep.walRecords) / rep.recover.Seconds(), "1/s"}

	// bpel
	p50("bpel.unmarshal_us", "us")

	// Go runtime, over the timed phase
	rt := rep.runtime
	out["goruntime.alloc_bytes_per_op"] = metric{rt.allocBytes / float64(max(rep.mainOps, 1)), "bytes"}
	out["goruntime.gc_cpu_fraction"] = metric{ratio(rt.gcCPU, rt.allCPU), "ratio"}
	out["goruntime.gc_pause_p99_us"] = metric{histQuantile(rt.pauses, 0.99) * 1e6, "us"}
	out["goruntime.sched_latency_p99_us"] = metric{histQuantile(rt.sched, 0.99) * 1e6, "us"}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// adjusted returns a hit/miss pair of Store.Stats deltas net of the
// lookups the replays made, from the timed phase when the workload's
// own ops made lookups there, else from the probes.
func (b *bench) adjusted(rep *report, get func(statsDelta) (float64, float64), replayHits, replayMisses string) (float64, float64) {
	for _, p := range []int{phaseMain, phaseProbe} {
		hits, misses := get(rep.stats[p])
		hits -= sum(b.tr.pick(replayHits, p))
		if replayMisses != "" {
			misses -= sum(b.tr.pick(replayMisses, p))
		}
		if hits+misses > 0 {
			return hits, misses
		}
	}
	return 0, 0
}

func sum(f floats) float64 {
	s := 0.0
	for _, v := range f {
		s += v
	}
	return s
}

// serverMetrics joins client spans with their handler spans and
// replays: handler = the handler span; wire = client − handler (HTTP
// transport, encoding and decoding, scheduling); self = handler − the
// replayed store call.
func (b *bench) serverMetrics(out map[string]metric) {
	tr := b.tr
	tr.mu.Lock()
	defer tr.mu.Unlock()
	handlers := map[uint64]span{}
	stores := map[uint64]span{}
	for _, s := range tr.spans {
		switch {
		case s.Kind == "handler":
			handlers[s.Parent] = s
		case s.Kind == "store":
			stores[s.Parent] = s
		}
	}
	type acc struct{ handler, wire, self floats }
	by := map[string]*[numPhases]acc{}
	var respBytes, reqBytes [numPhases]floats
	for _, s := range tr.spans {
		if s.Kind != "client" {
			continue
		}
		p := phaseIndex(s.Phase)
		switch s.Name {
		case "check", "get":
			respBytes[p] = append(respBytes[p], float64(s.RespBytes))
		case "ingest":
			reqBytes[p] = append(reqBytes[p], float64(s.ReqBytes)/batchSize)
		}
		h, ok := handlers[s.ID]
		if !ok {
			continue
		}
		a := by[s.Name]
		if a == nil {
			a = &[numPhases]acc{}
			by[s.Name] = a
		}
		a[p].handler = append(a[p].handler, float64(h.dur())/1e3)
		a[p].wire = append(a[p].wire, float64(s.dur()-h.dur())/1e3)
		if st, ok := stores[s.ID]; ok {
			a[p].self = append(a[p].self, float64(h.dur()-st.dur())/1e3)
		}
	}
	first := func(get func(p int) floats, phases ...int) floats {
		for _, p := range phases {
			if f := get(p); len(f) > 0 {
				return f
			}
		}
		return nil
	}
	timing := []int{phaseMain, phaseProbe, phaseSlice}
	for _, class := range []string{"check", "evolve", "ingest"} {
		a := by[class]
		if a == nil {
			a = &[numPhases]acc{}
		}
		out["server."+class+".handler_us"] = metric{first(func(p int) floats { return a[p].handler }, timing...).median(), "us"}
		if class != "ingest" {
			out["server."+class+".self_us"] = metric{first(func(p int) floats { return a[p].self }, timing...).median(), "us"}
		}
		if class != "evolve" {
			out["server."+class+".wire_us"] = metric{first(func(p int) floats { return a[p].wire }, timing...).median(), "us"}
		}
	}
	counted := []int{phaseSlice, phaseProbe}
	out["server.resp_bytes_per_op"] = metric{first(func(p int) floats { return respBytes[p] }, counted...).mean(), "count"}
	out["server.req_bytes_per_event"] = metric{first(func(p int) floats { return reqBytes[p] }, counted...).mean(), "count"}
}

func phaseIndex(name string) int {
	for i, n := range phaseNames {
		if n == name {
			return i
		}
	}
	return phaseSetup
}
