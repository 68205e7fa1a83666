//! The ROB-window timing simulator.

use std::collections::{HashMap, VecDeque};

use ltc_cache::{Hierarchy, MemLevel};
use ltc_predictors::{PrefetchLevel, PrefetchRequest, Prefetcher, RequestQueue};
use ltc_trace::TraceSource;

use crate::bus::Bus;
use crate::config::TimingConfig;
use crate::mshr::MshrFile;
use crate::report::TimingReport;

/// Cycle-approximate simulator of the Table 1 machine.
///
/// See the crate docs for the modelling approach. One instance is reusable
/// across runs; every [`TimingSim::run`] starts from cold caches.
#[derive(Debug, Clone)]
pub struct TimingSim {
    cfg: TimingConfig,
}

impl TimingSim {
    /// Creates a simulator for the given machine.
    pub fn new(cfg: TimingConfig) -> Self {
        TimingSim { cfg }
    }

    /// Runs `accesses` memory references from `source` under `predictor`,
    /// returning measured results (after the configured warm-up).
    pub fn run<S, P>(&self, source: &mut S, predictor: &mut P, accesses: u64) -> TimingReport
    where
        S: TraceSource,
        P: Prefetcher + ?Sized,
    {
        let cfg = self.cfg;
        let width = f64::from(cfg.issue_width);
        let line_bytes = cfg.hierarchy.l1.line_bytes;
        let mut hierarchy = Hierarchy::new(cfg.hierarchy);
        let mut l2_bus = Bus::with_channels(cfg.l2_bus_channels as usize);
        let mut mem_bus = Bus::new();
        let mut mshr = MshrFile::new(cfg.mshrs as usize);
        let mut queue = RequestQueue::new(cfg.prefetch_queue);
        // Lines filled by in-flight prefetches: line -> data-ready cycle.
        let mut pending_fill: HashMap<u64, f64> = HashMap::new();
        // Issued prefetches waiting for their data: applied to the
        // functional hierarchy at *arrival* time, not issue time — filling
        // early would evict the victim before its true last touch.
        let mut in_flight: VecDeque<(f64, PrefetchRequest)> = VecDeque::new();
        // In-order retirement bookkeeping: completions of memory ops.
        let mut mem_ops: VecDeque<(u64, f64)> = VecDeque::new();
        let mut retire_frontier = 0.0f64;
        let mut next_issue = 0.0f64;
        let mut instr_index = 0u64;
        // Completion of the most recent *dependent* load: pointer-chasing
        // loads form a chain through this register, while independent
        // accesses (array elements, node fields) overlap freely — the
        // memory-level-parallelism structure of Section 2.
        let mut chain_completion = 0.0f64;
        let mut max_completion = 0.0f64;
        // Monotone wall-clock frontier for prefetch issue decisions (event
        // timestamps themselves are out of order in this model).
        let mut drain_clock = 0.0f64;
        let mut last_drain = 0.0f64;
        let mut requests: Vec<PrefetchRequest> = Vec::new();
        let mut metadata_pending = 0u64;
        let mut last_traffic_total = 0u64;

        let mut report =
            TimingReport { predictor: predictor.name().to_string(), ..TimingReport::default() };
        // Warm-up snapshots.
        let mut measured_from_cycle = 0.0f64;
        let mut measured_from_instr = 0u64;
        let mut base_data_before = 0u64;
        let mut incorrect_before = 0u64;

        for access_no in 0..accesses {
            let Some(a) = source.next_access() else { break };
            if access_no == cfg.warmup_accesses {
                measured_from_cycle = max_completion.max(next_issue);
                measured_from_instr = instr_index;
                base_data_before = report.bandwidth.base_data_bytes;
                incorrect_before = report.bandwidth.incorrect_prediction_bytes;
                report.l1_misses = 0;
                report.l2_misses = 0;
            }

            // Apply prefetch fills whose data has arrived by now.
            while let Some(&(ready, req)) = in_flight.front() {
                if ready > drain_clock {
                    break;
                }
                in_flight.pop_front();
                if let Some(outcome) = hierarchy.prefetch(&req) {
                    report.prefetch_fills += 1;
                    predictor.on_prefetch_applied(&req, &outcome);
                }
            }

            // Non-memory gap instructions consume issue slots.
            next_issue += f64::from(a.gap) / width;
            instr_index += u64::from(a.gap);

            // ROB window: this op cannot issue until instruction
            // (instr_index - rob_entries) has retired. Retirement is in
            // order, so the frontier is the running max of completions of
            // all memory ops at or before that index (gap instructions
            // complete immediately and never gate it).
            let window_floor = instr_index.saturating_sub(u64::from(cfg.rob_entries));
            while let Some(&(idx, comp)) = mem_ops.front() {
                if idx <= window_floor {
                    retire_frontier = retire_frontier.max(comp);
                    mem_ops.pop_front();
                } else {
                    break;
                }
            }
            let issue = next_issue.max(retire_frontier);
            next_issue = issue + 1.0 / width;
            instr_index += 1;

            // Address readiness: pointer-chasing loads wait on the value of
            // the previous link of their chain (the MLP limiter of
            // Section 2).
            let addr_ready = if a.dependent { issue.max(chain_completion) } else { issue };
            drain_clock = drain_clock.max(addr_ready);

            let line = a.addr.line(line_bytes).0;
            let completion = if cfg.perfect_l1 {
                addr_ready + f64::from(cfg.l1_latency)
            } else {
                let out = hierarchy.access(a.addr, a.kind);
                if !out.l1.hit {
                    report.l1_misses += 1;
                }
                if out.level == MemLevel::Memory {
                    report.l2_misses += 1;
                    report.bandwidth.base_data_bytes += line_bytes;
                }
                if out.l1_writeback {
                    // Dirty L1 victim moves over the L1/L2 bus.
                    l2_bus.acquire(addr_ready, f64::from(cfg.l2_bus_occupancy));
                }
                if out.l2_writeback {
                    mem_bus.acquire(addr_ready, f64::from(cfg.mem_bus_occupancy));
                    report.bandwidth.base_data_bytes += line_bytes;
                }
                // A miss on a line whose prefetch is already in flight merges
                // into the outstanding MSHR: it completes when the prefetch
                // data arrives, without a second bus transfer.
                let merged = if out.level != MemLevel::L1 {
                    pending_fill.get(&line).copied().filter(|&t| t >= addr_ready)
                } else {
                    None
                };
                let completion = match (merged, out.level) {
                    (Some(t), _) => t.max(addr_ready + f64::from(cfg.l1_latency)),
                    (None, MemLevel::L1) => {
                        // A hit on a block whose prefetch is still in flight
                        // waits for the data to arrive.
                        let base = addr_ready + f64::from(cfg.l1_latency);
                        match pending_fill.get(&line) {
                            Some(&t) if t > base => t,
                            _ => base,
                        }
                    }
                    (None, MemLevel::L2) => {
                        let start = mshr.admit(addr_ready);
                        let grant = l2_bus.acquire(start, f64::from(cfg.l2_bus_occupancy));
                        let completion = grant + f64::from(cfg.l2_latency);
                        mshr.track(completion);
                        completion
                    }
                    (None, MemLevel::Memory) => {
                        let start = mshr.admit(addr_ready);
                        let grant = l2_bus.acquire(start, f64::from(cfg.l2_bus_occupancy));
                        let mem_grant = mem_bus.acquire(
                            grant + f64::from(cfg.l2_latency),
                            f64::from(cfg.mem_bus_occupancy),
                        );
                        let completion = mem_grant + f64::from(cfg.mem_latency);
                        mshr.track(completion);
                        completion
                    }
                };
                // Predictor hooks and prefetch issue. The issue budget
                // reflects the wall-clock elapsed since the last drain: the
                // bus drains the request queue during the idle stretches
                // between demand bursts (e.g. while a pointer chain waits on
                // memory), which per-access instantaneous checks would miss.
                predictor.on_access(&a, &out, &mut requests);
                for req in requests.drain(..) {
                    queue.push(req);
                }
                let elapsed = (drain_clock - last_drain).max(0.0);
                let budget = ((elapsed / f64::from(cfg.l2_bus_occupancy)) as usize + 2).min(32);
                last_drain = drain_clock;
                // An empty queue issues nothing; most accesses find it so.
                if !queue.is_empty() {
                    self.issue_prefetches(
                        &mut queue,
                        &hierarchy,
                        &mut l2_bus,
                        &mut mem_bus,
                        &mut mshr,
                        &mut pending_fill,
                        &mut in_flight,
                        drain_clock,
                        budget,
                        &mut report,
                    );
                }
                // LT-cords metadata traffic occupies the memory bus in
                // 32-byte beats.
                let t = predictor.traffic().total();
                metadata_pending += t - last_traffic_total;
                last_traffic_total = t;
                while metadata_pending >= 32 {
                    mem_bus.acquire(addr_ready, 3.0);
                    metadata_pending -= 32;
                }
                if pending_fill.len() > 4096 {
                    pending_fill.retain(|_, &mut t| t > addr_ready);
                }
                completion
            };

            mem_ops.push_back((instr_index, completion));
            max_completion = max_completion.max(completion);
            if a.kind.is_load() && a.dependent {
                chain_completion = completion;
            }
            if access_no >= cfg.warmup_accesses {
                report.accesses += 1;
            }
        }

        report.instructions = instr_index - measured_from_instr;
        report.cycles = (max_completion.max(next_issue) - measured_from_cycle).max(1.0);
        report.mshr_stalls = mshr.stalls();
        report.prefetch_drops = queue.dropped();
        let traffic = predictor.traffic();
        report.bandwidth.sequence_creation_bytes =
            traffic.sequence_write_bytes + traffic.confidence_update_bytes;
        report.bandwidth.sequence_fetch_bytes = traffic.sequence_read_bytes;
        report.bandwidth.base_data_bytes -= base_data_before;
        report.bandwidth.incorrect_prediction_bytes -= incorrect_before;
        report
    }

    /// Issues queued prefetches while the L1/L2 bus is free at `now`
    /// (the paper's issue rule, Section 5). Issue only reserves the busses
    /// and MSHR and computes the arrival time; the functional fill is
    /// applied by the caller once the data arrives.
    #[allow(clippy::too_many_arguments)]
    fn issue_prefetches(
        &self,
        queue: &mut RequestQueue,
        hierarchy: &Hierarchy,
        l2_bus: &mut Bus,
        mem_bus: &mut Bus,
        mshr: &mut MshrFile,
        pending_fill: &mut HashMap<u64, f64>,
        in_flight: &mut VecDeque<(f64, PrefetchRequest)>,
        now: f64,
        budget: usize,
        report: &mut TimingReport,
    ) {
        let cfg = &self.cfg;
        let line_bytes = cfg.hierarchy.l1.line_bytes;
        // The paper issues prefetches "when the L1/L2 bus is free". The
        // budget is the bus-capacity credit accumulated since the last
        // issue opportunity (idle stretches between demand bursts), so
        // prefetch issue is rate-limited to what a free bus could carry;
        // the bus acquisition below then models the queuing contention of
        // each individual transfer.
        for _ in 0..budget {
            let Some(req) = queue.pop() else { return };
            let target_line = req.target.line(line_bytes).0;
            let resident = match req.level {
                PrefetchLevel::L1 => hierarchy.l1().contains(req.target),
                PrefetchLevel::L2 => hierarchy.l2().contains(req.target),
            };
            // MSHR merge: a request for a line already in flight is absorbed
            // (GHB's overlapping depth-4 windows re-request lines heavily).
            let in_flight_already =
                pending_fill.get(&target_line).map(|&t| t > now).unwrap_or(false);
            if resident || in_flight_already {
                continue;
            }
            let start = mshr.admit(now);
            let grant = l2_bus.acquire(start, f64::from(cfg.l2_bus_occupancy));
            let ready = if hierarchy.l2().contains(req.target) {
                grant + f64::from(cfg.l2_latency)
            } else {
                let mem_grant = mem_bus
                    .acquire(grant + f64::from(cfg.l2_latency), f64::from(cfg.mem_bus_occupancy));
                // The line moves over the memory bus here instead of on
                // the (now eliminated) demand miss: it is base data.
                report.bandwidth.base_data_bytes += line_bytes;
                mem_grant + f64::from(cfg.mem_latency)
            };
            mshr.track(ready);
            pending_fill.insert(target_line, ready);
            in_flight.push_back((ready, req));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltc_predictors::{DbcpConfig, DbcpPrefetcher, NullPrefetcher};
    use ltc_trace::{Addr, MemoryAccess, Pc, Replay};

    fn fits_l1_trace(n: usize) -> Replay {
        // 16 lines touched round-robin: everything hits after the first
        // pass.
        let mut v = Vec::new();
        for i in 0..n {
            v.push(MemoryAccess::load(Pc(1), Addr(((i % 16) as u64) * 64)).with_gap(7));
        }
        Replay::once(v)
    }

    fn streaming_trace(n: usize) -> Replay {
        // Every access a fresh line: misses all the way to memory.
        let mut v = Vec::new();
        for i in 0..n {
            v.push(MemoryAccess::load(Pc(1), Addr((i as u64) * 64)).with_gap(7));
        }
        Replay::once(v)
    }

    fn dependent_streaming_trace(n: usize) -> Replay {
        let mut v = Vec::new();
        for i in 0..n {
            v.push(
                MemoryAccess::load(Pc(1), Addr((i as u64) * 64)).with_gap(7).with_dependent(true),
            );
        }
        Replay::once(v)
    }

    #[test]
    fn cache_resident_code_reaches_near_peak_ipc() {
        let mut t = fits_l1_trace(20_000);
        let r =
            TimingSim::new(TimingConfig::paper()).run(&mut t, &mut NullPrefetcher::new(), u64::MAX);
        // 8 instructions per access, issue width 8: IPC should approach 8.
        assert!(r.ipc() > 5.0, "resident workload IPC {} too low", r.ipc());
    }

    #[test]
    fn memory_bound_code_is_slow() {
        let mut t = streaming_trace(20_000);
        let r =
            TimingSim::new(TimingConfig::paper()).run(&mut t, &mut NullPrefetcher::new(), u64::MAX);
        assert!(r.ipc() < 3.0, "streaming workload IPC {} too high", r.ipc());
        assert!(r.l2_misses > 10_000);
    }

    #[test]
    fn dependent_chains_are_slower_than_independent_misses() {
        let mut ti = streaming_trace(10_000);
        let mut td = dependent_streaming_trace(10_000);
        let sim = TimingSim::new(TimingConfig::paper());
        let ri = sim.run(&mut ti, &mut NullPrefetcher::new(), u64::MAX);
        let rd = sim.run(&mut td, &mut NullPrefetcher::new(), u64::MAX);
        assert!(
            rd.ipc() < ri.ipc() * 0.5,
            "dependent {} vs independent {}: MLP must matter",
            rd.ipc(),
            ri.ipc()
        );
    }

    #[test]
    fn perfect_l1_bounds_all_configurations() {
        let sim = TimingSim::new(TimingConfig::paper());
        let perfect = TimingSim::new(TimingConfig::perfect_l1());
        let mut t1 = streaming_trace(10_000);
        let mut t2 = streaming_trace(10_000);
        let base = sim.run(&mut t1, &mut NullPrefetcher::new(), u64::MAX);
        let ideal = perfect.run(&mut t2, &mut NullPrefetcher::new(), u64::MAX);
        assert!(ideal.ipc() > base.ipc(), "perfect L1 must dominate");
        assert!(ideal.speedup_pct_over(&base) > 50.0);
    }

    #[test]
    fn prefetching_recovers_speedup_on_recurring_pattern() {
        // A recurring *dependent* conflict loop: the misses serialize on the
        // pointer chain, so eliminating them collapses the chain latency.
        // (An independent miss loop would be bandwidth-bound, where the
        // paper itself observes prefetching cannot help — Section 5.8.)
        let span = 512 * 64;
        let mut v = Vec::new();
        for _ in 0..60 {
            for set in 0..64u64 {
                for alias in 0..4u64 {
                    v.push(
                        MemoryAccess::load(Pc(0x400 + alias), Addr(set * 64 + alias * span))
                            .with_gap(3)
                            .with_dependent(true),
                    );
                }
            }
        }
        let sim = TimingSim::new(TimingConfig::paper());
        let mut base_t = Replay::once(v.clone());
        let mut pf_t = Replay::once(v);
        let base = sim.run(&mut base_t, &mut NullPrefetcher::new(), u64::MAX);
        let mut dbcp = DbcpPrefetcher::new(DbcpConfig::unlimited());
        let pf = sim.run(&mut pf_t, &mut dbcp, u64::MAX);
        assert!(
            pf.speedup_pct_over(&base) > 10.0,
            "DBCP speedup {:.1}% too small (base {:.3}, pf {:.3})",
            pf.speedup_pct_over(&base),
            base.ipc(),
            pf.ipc()
        );
    }

    #[test]
    fn warmup_excludes_cold_misses_from_stats() {
        let mut t = fits_l1_trace(10_000);
        let cfg = TimingConfig::paper().with_warmup(1000);
        let r = TimingSim::new(cfg).run(&mut t, &mut NullPrefetcher::new(), u64::MAX);
        assert_eq!(r.l1_misses, 0, "all 16 cold misses land in warm-up");
        assert_eq!(r.accesses, 9000);
    }

    #[test]
    fn bandwidth_accounts_fills() {
        let mut t = streaming_trace(5_000);
        let r =
            TimingSim::new(TimingConfig::paper()).run(&mut t, &mut NullPrefetcher::new(), u64::MAX);
        assert!(r.bandwidth.base_data_bytes >= 5_000 * 64 / 2);
        assert!(r.bandwidth.bytes_per_instruction(r.instructions) > 0.0);
    }
}
