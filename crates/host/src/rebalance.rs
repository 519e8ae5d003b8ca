//! Hot-shard rebalancing: watch per-shard simulated busy time, detect
//! sustained imbalance, migrate hot hooks onto underloaded shards.
//!
//! Hooks are placed round-robin at registration ([`crate::FcHost::
//! register_hook`]), which is blind to how much work each hook's
//! events turn out to cost. Under a skewed tenant mix (a few hot
//! resources, a long cold tail — the common CoAP shape) round-robin
//! can stack the hot hooks on one shard while its siblings idle,
//! capping the host's schedulable throughput at the hottest shard.
//!
//! The [`Rebalancer`] closes that loop using signals the shards
//! already record in their telemetry lanes and export as
//! [`crate::ShardReport`]s: **simulated platform cycles** per shard and
//! per hook. Because the cycle model is
//! deterministic and preemption-free, the imbalance measure is immune
//! to how the host box time-slices worker threads — the same
//! methodology the capacity metric in `BENCH_host.json` is built on.
//!
//! ## Hysteresis
//!
//! Three guards keep the rebalancer from thrashing:
//!
//! * **windowed deltas** — decisions use the cycles accrued *since the
//!   previous observation*, not lifetime totals, so an old imbalance
//!   that has already been fixed cannot re-trigger;
//! * **sustain** — imbalance must persist for `sustain` consecutive
//!   observations before anything moves (a one-window burst is noise);
//! * **strict improvement + cooldown** — a hook moves only when the
//!   move strictly lowers the hottest shard's projected load
//!   (`cold + hook < hot`), and after any move the rebalancer sits out
//!   `cooldown` observations so the new placement can prove itself in
//!   fresh windows.
//!
//! The migration itself — queue, registration, containers — is
//! [`crate::FcHost::migrate_hook`], which preserves per-event
//! semantics exactly (see its docs and `tests/host_differential.rs`).

use std::collections::HashMap;

use fc_suit::Uuid;

use crate::host::{FcHost, HostError};
use crate::shard::ShardReport;
use crate::telemetry::TraceKind;

/// Tuning knobs for the [`Rebalancer`].
#[derive(Debug, Clone, Copy)]
pub struct RebalanceConfig {
    /// Rebalance only while the window balance (mean/max of per-shard
    /// busy cycles) is below this. `1.0` would chase noise; the default
    /// `0.9` matches the placement quality round-robin achieves on a
    /// uniform mix.
    pub min_balance: f64,
    /// Consecutive imbalanced observations required before moving.
    pub sustain: u32,
    /// Observations to sit out after performing migrations.
    pub cooldown: u32,
    /// Maximum hook migrations per observation.
    pub max_moves: usize,
    /// Ignore windows with less total simulated work than this (cycle
    /// counts too small to be a real signal).
    pub min_window_cycles: u64,
}

impl Default for RebalanceConfig {
    fn default() -> Self {
        RebalanceConfig {
            min_balance: 0.9,
            sustain: 2,
            cooldown: 1,
            max_moves: 2,
            min_window_cycles: 10_000,
        }
    }
}

/// One hook migration the rebalancer performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HookMove {
    /// The migrated hook.
    pub hook: Uuid,
    /// Shard it was on.
    pub from: usize,
    /// Shard it moved to.
    pub to: usize,
}

/// What one [`Rebalancer::observe`] call saw and did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RebalanceReport {
    /// Simulated busy cycles per shard in the observation window.
    pub window_cycles: Vec<u64>,
    /// Window balance: mean over max of `window_cycles` (1.0 = even).
    pub balance: f64,
    /// Per-hook simulated cycles in the observation window (summed
    /// over shards, sorted by hook id).
    pub hook_window: Vec<(Uuid, u64)>,
    /// Migrations performed this observation (empty when hysteresis
    /// held them back or the load is balanced).
    pub moves: Vec<HookMove>,
}

/// Watches a host's per-shard busy-time statistics and migrates hot
/// hooks off overloaded shards (module docs).
///
/// # Examples
///
/// ```
/// use fc_host::{FcHost, HostConfig, RebalanceConfig, Rebalancer};
/// use fc_rtos::platform::{Engine, Platform};
///
/// let mut host = FcHost::new(Platform::CortexM4, Engine::FemtoContainer, HostConfig::default());
/// let mut rebalancer = Rebalancer::new(RebalanceConfig::default());
/// // ... register hooks, attach containers, fire events ...
/// let report = rebalancer.observe(&host).unwrap();
/// assert!(report.moves.is_empty(), "an idle host needs no moves");
/// host.shutdown();
/// ```
#[derive(Debug)]
pub struct Rebalancer {
    config: RebalanceConfig,
    /// Lifetime per-shard cycles at the last observation.
    last_shard_cycles: Vec<u64>,
    /// Lifetime per-hook cycles (summed over shards) at the last
    /// observation.
    last_hook_cycles: HashMap<Uuid, u64>,
    imbalanced_streak: u32,
    cooldown_left: u32,
}

impl Rebalancer {
    /// Creates a rebalancer; the first [`Rebalancer::observe`] call
    /// establishes the baseline window and never moves anything.
    pub fn new(config: RebalanceConfig) -> Self {
        Rebalancer {
            config,
            last_shard_cycles: Vec::new(),
            last_hook_cycles: HashMap::new(),
            imbalanced_streak: 0,
            cooldown_left: 0,
        }
    }

    /// Takes one observation: reads the shards' cycle counters,
    /// computes the window balance, and — when imbalance has persisted
    /// past the hysteresis guards — migrates hot hooks onto underloaded
    /// shards via [`FcHost::migrate_hook`].
    ///
    /// Call this periodically from whatever owns the host (between
    /// load rounds, on a timer tick) — or let the host call it itself:
    /// with [`crate::HostConfig::rebalance_interval`] set, the host
    /// folds a `Rebalancer` in and observes in-band every N dispatched
    /// events. Migration is race-free either way: the host's placement
    /// lock serializes the move against every concurrent fire and
    /// lifecycle operation.
    ///
    /// # Errors
    ///
    /// Propagates [`FcHost::migrate_hook`] failures; observation itself
    /// cannot fail.
    pub fn observe(&mut self, host: &FcHost) -> Result<RebalanceReport, HostError> {
        let reports = host.shard_reports();
        let (window, mut hook_window, first_observation) =
            self.take_window(&reports, host.shard_count());
        hook_window.sort_unstable_by_key(|&(hook, _)| hook);

        let total: u64 = window.iter().sum();
        let max = window.iter().copied().max().unwrap_or(0);
        let balance = if max == 0 {
            1.0
        } else {
            total as f64 / (max as f64 * window.len() as f64)
        };
        let mut report = RebalanceReport {
            window_cycles: window.clone(),
            balance,
            hook_window: hook_window.clone(),
            moves: Vec::new(),
        };

        if first_observation {
            return Ok(report);
        }
        if self.cooldown_left > 0 {
            self.cooldown_left -= 1;
            return Ok(report);
        }
        if total < self.config.min_window_cycles || balance >= self.config.min_balance {
            self.imbalanced_streak = 0;
            return Ok(report);
        }
        self.imbalanced_streak += 1;
        if self.imbalanced_streak < self.config.sustain {
            return Ok(report);
        }

        // Only hooks still owned by the shard they burned cycles on are
        // candidates (a hook that moved mid-window attributes cycles to
        // several shards; its current owner is authoritative).
        let candidates: Vec<(Uuid, usize, u64)> = hook_window
            .into_iter()
            .filter_map(|(hook, cycles)| host.shard_of_hook(hook).map(|s| (hook, s, cycles)))
            .collect();
        let planned = plan_moves(&window, &candidates, self.config.max_moves);
        for m in &planned {
            host.telemetry().trace_hook(
                host.env().now_us(),
                TraceKind::Rebalance,
                &m.hook,
                ((m.from as u64) << 32) | m.to as u64,
            );
            host.migrate_hook(m.hook, m.to)?;
        }
        if !planned.is_empty() {
            self.cooldown_left = self.config.cooldown;
            self.imbalanced_streak = 0;
        }
        report.moves = planned;
        Ok(report)
    }

    /// Drops a hook's window baseline. Call when a hook is
    /// unregistered, so a later reuse of the same UUID starts from a
    /// fresh window instead of under-counting its first window against
    /// the departed registration's lifetime count. The host's own
    /// in-band rebalancer gets this automatically from
    /// [`FcHost::unregister_hook`]; caller-driven rebalancers should
    /// mirror that call.
    pub fn forget_hook(&mut self, hook: Uuid) {
        self.last_hook_cycles.remove(&hook);
    }

    /// Folds one round of shard reports into the baseline state and
    /// returns `(per-shard window, per-hook window, first_observation)`
    /// — the accounting heart of [`Rebalancer::observe`], split out so
    /// it is unit-testable against synthetic reports.
    ///
    /// Two rules guard the baselines:
    ///
    /// * **Sizing**: the shard vector is sized by the host's shard
    ///   count *and* the largest shard index actually reported, so a
    ///   report is never silently dropped (dropping one used to zero
    ///   that shard's baseline, and the next window re-counted the
    ///   shard's whole lifetime as fresh load — a spurious-migration
    ///   trigger).
    /// * **Missing reports preserve their baseline**: a shard that
    ///   failed to report contributes an empty window this round and
    ///   keeps its previous lifetime count, instead of being reset to
    ///   zero.
    ///
    /// Hook baselines are retained only for hooks present in the
    /// current reports: a removed hook's baseline dies with it (reports
    /// list only registered hooks, and removal clears the hook's lane
    /// counts), so a reused hook UUID starts from a clean window
    /// instead of under-counting against a stale count.
    fn take_window(
        &mut self,
        reports: &[ShardReport],
        num_shards: usize,
    ) -> (Vec<u64>, Vec<(Uuid, u64)>, bool) {
        let n = num_shards.max(reports.iter().map(|r| r.shard + 1).max().unwrap_or(0));
        let mut seen: Vec<Option<u64>> = vec![None; n];
        let mut hook_total: HashMap<Uuid, u64> = HashMap::new();
        for r in reports {
            seen[r.shard] = Some(r.sim_cycles);
            for &(hook, cycles) in &r.hook_cycles {
                *hook_total.entry(hook).or_insert(0) += cycles;
            }
        }

        // The very first observation only establishes the baseline:
        // lifetime totals are not a window, and on a long-running host
        // they may describe an imbalance that is already gone.
        let first_observation = self.last_shard_cycles.is_empty();

        let mut totals = vec![0u64; n];
        let mut window = vec![0u64; n];
        for i in 0..n {
            let prev = self.last_shard_cycles.get(i).copied().unwrap_or(0);
            match seen[i] {
                Some(now) => {
                    totals[i] = now;
                    window[i] = now.saturating_sub(prev);
                }
                // No report this round: empty window, baseline kept.
                None => totals[i] = prev,
            }
        }
        let hook_window: Vec<(Uuid, u64)> = hook_total
            .iter()
            .map(|(&hook, &now)| {
                (
                    hook,
                    now.saturating_sub(self.last_hook_cycles.get(&hook).copied().unwrap_or(0)),
                )
            })
            .collect();
        self.last_shard_cycles = totals;
        self.last_hook_cycles = hook_total;
        (window, hook_window, first_observation)
    }
}

/// Greedy migration planning over one observation window: repeatedly
/// take the hottest and coldest shards and move the largest hook off
/// the hot shard that **strictly improves** the pair
/// (`cold + hook < hot`). The projected max load is monotonically
/// non-increasing, so a plan can never oscillate.
///
/// Pure function of the window — the unit-testable heart of the
/// rebalancer.
pub fn plan_moves(window: &[u64], hooks: &[(Uuid, usize, u64)], max_moves: usize) -> Vec<HookMove> {
    let mut load: Vec<u64> = window.to_vec();
    let mut owner: HashMap<Uuid, usize> = hooks.iter().map(|&(h, s, _)| (h, s)).collect();
    let mut moves = Vec::new();
    for _ in 0..max_moves {
        let Some(hot) = (0..load.len()).max_by_key(|&i| load[i]) else {
            break;
        };
        let Some(cold) = (0..load.len()).min_by_key(|&i| load[i]) else {
            break;
        };
        if hot == cold {
            break;
        }
        // Largest hook on the hot shard whose move strictly lowers the
        // pair's max; ties break on the hook id for determinism.
        let pick = hooks
            .iter()
            .filter(|(h, _, cycles)| {
                owner.get(h) == Some(&hot)
                    && *cycles > 0
                    && load[cold].saturating_add(*cycles) < load[hot]
            })
            .max_by_key(|(h, _, cycles)| (*cycles, *h));
        let Some(&(hook, _, cycles)) = pick else {
            break;
        };
        load[hot] -= cycles;
        load[cold] += cycles;
        owner.insert(hook, cold);
        moves.push(HookMove {
            hook,
            from: hot,
            to: cold,
        });
    }
    moves
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hook(n: u32) -> Uuid {
        Uuid::from_name("test/rebalance", &n.to_string())
    }

    #[test]
    fn balanced_window_plans_nothing() {
        let window = [100, 100, 100, 100];
        let hooks: Vec<_> = (0..4).map(|i| (hook(i), i as usize, 100)).collect();
        assert!(plan_moves(&window, &hooks, 4).is_empty());
    }

    #[test]
    fn colliding_hot_hooks_spread_to_cold_shards() {
        // The bench shape: hot hooks 0 and 4 collide on shard 0, hot
        // hooks 1 and 5 on shard 1; shards 2 and 3 carry only cold
        // hooks.
        let window = [400, 400, 100, 100];
        let hooks = vec![
            (hook(0), 0, 200),
            (hook(4), 0, 200),
            (hook(1), 1, 200),
            (hook(5), 1, 200),
            (hook(2), 2, 50),
            (hook(6), 2, 50),
            (hook(3), 3, 50),
            (hook(7), 3, 50),
        ];
        let moves = plan_moves(&window, &hooks, 2);
        assert_eq!(moves.len(), 2);
        let mut froms: Vec<usize> = moves.iter().map(|m| m.from).collect();
        froms.sort_unstable();
        assert_eq!(froms, vec![0, 1], "one hook off each hot shard");
        assert!(moves.iter().all(|m| m.to >= 2), "moves land on cold shards");
        // Projected loads after the plan are strictly better.
        let mut load = window;
        for m in &moves {
            let cycles = hooks.iter().find(|(h, _, _)| *h == m.hook).unwrap().2;
            load[m.from] -= cycles;
            load[m.to] += cycles;
        }
        assert!(load.iter().max() < window.iter().max());
    }

    #[test]
    fn no_move_when_nothing_strictly_improves() {
        // One giant hook dominates its shard: moving it would just move
        // the hot spot (1000 to a 0-load shard stays max), and the rule
        // demands strict improvement.
        let window = [1000, 0];
        let hooks = vec![(hook(0), 0, 1000)];
        assert!(plan_moves(&window, &hooks, 4).is_empty());
        // But a splittable shard does improve.
        let hooks = vec![(hook(0), 0, 600), (hook(1), 0, 400)];
        let moves = plan_moves(&window, &hooks, 4);
        assert_eq!(moves.len(), 1);
        assert_eq!(moves[0].hook, hook(0), "largest improving hook moves");
    }

    #[test]
    fn plan_respects_max_moves() {
        let window = [900, 0, 0];
        let hooks = vec![(hook(0), 0, 300), (hook(1), 0, 300), (hook(2), 0, 300)];
        assert_eq!(plan_moves(&window, &hooks, 1).len(), 1);
        assert!(plan_moves(&window, &hooks, 3).len() >= 2);
    }

    fn shard_report(shard: usize, sim_cycles: u64) -> ShardReport {
        ShardReport {
            shard,
            sim_cycles,
            ..ShardReport::default()
        }
    }

    /// Bugfix: a shard that fails to report must keep its previous
    /// baseline. Zeroing it made the *next* window re-count the
    /// shard's entire lifetime cycles as fresh load — a spurious
    /// imbalance out of thin air.
    #[test]
    fn missing_report_preserves_shard_baseline() {
        let mut r = Rebalancer::new(RebalanceConfig::default());
        let (w, _, first) = r.take_window(&[shard_report(0, 1000), shard_report(1, 800)], 2);
        assert!(first);
        assert_eq!(w, vec![1000, 800]);
        // Shard 1's report goes missing: empty window, baseline kept.
        let (w, _, first) = r.take_window(&[shard_report(0, 1500)], 2);
        assert!(!first);
        assert_eq!(w, vec![500, 0]);
        // It reports again: only the genuinely new cycles count.
        let (w, _, _) = r.take_window(&[shard_report(0, 1500), shard_report(1, 900)], 2);
        assert_eq!(
            w,
            vec![0, 100],
            "no lifetime re-count after a missing report"
        );
    }

    /// Bugfix: the shard vector used to be sized by the number of
    /// reports received, so a report whose `shard` index was ≥ that
    /// count was silently dropped (and its baseline zeroed).
    #[test]
    fn high_shard_index_report_is_not_dropped() {
        let mut r = Rebalancer::new(RebalanceConfig::default());
        let (w, _, _) = r.take_window(&[shard_report(3, 700)], 4);
        assert_eq!(w, vec![0, 0, 0, 700], "shard 3's report survives alone");
        let (w, _, _) = r.take_window(
            &[
                shard_report(0, 10),
                shard_report(1, 10),
                shard_report(2, 10),
                shard_report(3, 800),
            ],
            4,
        );
        assert_eq!(
            w,
            vec![10, 10, 10, 100],
            "baseline was established, not zeroed"
        );
    }

    /// A hook absent from the current reports loses its baseline: a
    /// departed hook must not be tracked forever, and a later reuse of
    /// the UUID starts a fresh window.
    #[test]
    fn departed_hook_baseline_dies_with_the_reports() {
        let mut r = Rebalancer::new(RebalanceConfig::default());
        let h = hook(1);
        let rep = |cycles: u64, hooks: Vec<(Uuid, u64)>| ShardReport {
            shard: 0,
            sim_cycles: cycles,
            hook_cycles: hooks,
            ..ShardReport::default()
        };
        r.take_window(&[rep(1000, vec![(h, 1000)])], 1);
        // The hook is unregistered: reports no longer list it.
        let (_, hw, _) = r.take_window(&[rep(1000, vec![])], 1);
        assert!(hw.is_empty());
        assert!(
            r.last_hook_cycles.is_empty(),
            "baseline pruned with the hook"
        );
        // The UUID is reused: its first window is the fresh count.
        let (_, hw, _) = r.take_window(&[rep(1050, vec![(h, 50)])], 1);
        assert_eq!(hw, vec![(h, 50)]);
    }

    #[test]
    fn forget_hook_drops_the_baseline_immediately() {
        let mut r = Rebalancer::new(RebalanceConfig::default());
        let h = hook(2);
        let rep = |cycles: u64, hooks: Vec<(Uuid, u64)>| ShardReport {
            shard: 0,
            sim_cycles: cycles,
            hook_cycles: hooks,
            ..ShardReport::default()
        };
        r.take_window(&[rep(1000, vec![(h, 1000)])], 1);
        // Remove-then-reinstall *between* two observations: without the
        // forget, the reused UUID's fresh 50 cycles would under-count
        // against the stale 1000-cycle baseline and report a 0 window.
        r.forget_hook(h);
        let (_, hw, _) = r.take_window(&[rep(1050, vec![(h, 50)])], 1);
        assert_eq!(
            hw,
            vec![(h, 50)],
            "fresh window, not 50.saturating_sub(1000)"
        );
    }

    mod host_level {
        use super::*;
        use crate::host::{FcHost, HostConfig};
        use fc_core::contract::{ContractOffer, ContractRequest};
        use fc_core::helpers_impl::standard_helper_ids;
        use fc_core::hooks::{Hook, HookKind, HookPolicy};
        use fc_rbpf::program::ProgramBuilder;
        use fc_rtos::platform::{Engine, Platform};

        fn image() -> Vec<u8> {
            ProgramBuilder::new()
                .asm("mov r0, 1\nexit")
                .unwrap()
                .build()
                .to_bytes()
        }

        fn hook_cycles_of(host: &FcHost, hook: Uuid) -> Vec<(usize, u64)> {
            host.shard_reports()
                .iter()
                .flat_map(|r| {
                    r.hook_cycles
                        .iter()
                        .filter(|(h, _)| *h == hook)
                        .map(|(_, c)| (r.shard, *c))
                        .collect::<Vec<_>>()
                })
                .collect()
        }

        /// A migrated hook is listed only under its current shard —
        /// never under every shard that ever ran it — and its count
        /// keeps the cycles it accrued before the move.
        #[test]
        fn migration_prunes_old_shard_and_carries_cycles() {
            let mut host = FcHost::new(
                Platform::CortexM4,
                Engine::FemtoContainer,
                HostConfig {
                    workers: 2,
                    ..HostConfig::default()
                },
            );
            let hook = Hook::new("rb-acct", HookKind::Custom, HookPolicy::First);
            let hook_id = hook.id;
            host.register_hook(hook, ContractOffer::helpers(standard_helper_ids()));
            let c = host
                .install("c", 1, &image(), ContractRequest::default())
                .unwrap();
            host.attach(c, hook_id).unwrap();
            for _ in 0..5 {
                host.fire_sync(hook_id, &[], &[]).unwrap();
            }
            let from = host.shard_of_hook(hook_id).unwrap();
            let before: u64 = hook_cycles_of(&host, hook_id).iter().map(|(_, c)| c).sum();
            assert!(before > 0);
            host.migrate_hook(hook_id, 1 - from).unwrap();
            host.fire_sync(hook_id, &[], &[]).unwrap();
            let entries = hook_cycles_of(&host, hook_id);
            assert!(
                entries.iter().all(|(shard, _)| *shard == 1 - from),
                "old shard's entry pruned: {entries:?}"
            );
            let after: u64 = entries.iter().map(|(_, c)| c).sum();
            assert!(
                after > before,
                "cycles travelled with the hook and kept growing: {before} -> {after}"
            );
            host.shutdown();
        }

        /// The remove-then-reinstall case end to end: a hook is
        /// unregistered and its UUID reused; the reused hook's first
        /// observed window must count its fresh cycles (the stale
        /// baseline would have under-counted it to zero).
        #[test]
        fn remove_then_reinstall_counts_fresh_window() {
            let mut host = FcHost::new(
                Platform::CortexM4,
                Engine::FemtoContainer,
                HostConfig {
                    workers: 1,
                    ..HostConfig::default()
                },
            );
            let mk = || Hook::new("rb-reuse", HookKind::Custom, HookPolicy::First);
            let hook_id = mk().id;
            let offer = ContractOffer::helpers(standard_helper_ids());
            host.register_hook(mk(), offer.clone());
            let c = host
                .install("c", 1, &image(), ContractRequest::default())
                .unwrap();
            host.attach(c, hook_id).unwrap();
            let mut rb = Rebalancer::new(RebalanceConfig::default());
            for _ in 0..5 {
                host.fire_sync(hook_id, &[], &[]).unwrap();
            }
            host.quiesce();
            rb.observe(&host).unwrap(); // baseline over the 5 events

            let attached = host.unregister_hook(hook_id).unwrap();
            assert_eq!(attached, vec![c]);
            assert!(
                hook_cycles_of(&host, hook_id).is_empty(),
                "unregistration prunes the shard's accounting entry"
            );
            rb.forget_hook(hook_id); // caller-driven mirror of the host's in-band forget

            host.register_hook(mk(), offer);
            host.attach(c, hook_id).unwrap();
            let fresh = host.fire_sync(hook_id, &[], &[]).unwrap().cycles;
            host.quiesce();
            let report = rb.observe(&host).unwrap();
            let window = report
                .hook_window
                .iter()
                .find(|(h, _)| *h == hook_id)
                .map(|(_, w)| *w)
                .unwrap_or(0);
            assert!(fresh > 0);
            assert_eq!(
                window, fresh,
                "reused hook's first window is exactly its fresh cycles"
            );
            host.shutdown();
        }
    }
}
