//! Content-addressed stage-artifact cache.
//!
//! A [`FlowSession`](crate::FlowSession) keys each cacheable stage output
//! by a content hash of everything that stage reads: the design, the
//! options prefix that affects it, and — where relevant — the clock,
//! device and seed. Variant sweeps (same design, different option sets or
//! clocks) and the lint pre-pass then share the expensive front-end work
//! instead of re-running it per flow.
//!
//! Keying rules (see `DESIGN.md` §3):
//!
//! * **front-end** — `(design, split?)`. Clock-independent, so clock
//!   sweeps share one unroll; `split?` is the `sync_pruning` toggle.
//! * **schedule** — `(front-end key, clock, broadcast_aware?)`, plus the
//!   device and seed *only* when broadcast-aware (the calibrated tables
//!   depend on both; the baseline predicted schedule on neither).
//! * **lower / implement** — not cached: their inputs almost never repeat
//!   within a session and the netlists dominate memory.

use std::collections::HashMap;
use std::fmt::Debug;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use hlsb_store::{ArtifactBackend, StageKind};

use crate::passes::{FrontEndArtifact, ScheduleArtifact};

pub(crate) use hlsb_store::{combine, hash_debug};

/// Front-end stage key: `(design, split?)`.
pub(crate) fn front_end_key(design_hash: u64, split: bool) -> u64 {
    combine(&[design_hash, u64::from(split)])
}

/// Schedule stage key; `device_hash`/`seed` contribute only when
/// `broadcast_aware` (the baseline schedule depends on neither).
/// `inject` contributes only when enabled (the classic flow keeps its
/// pre-injection keys), keyed by content so distinct boundary sets never
/// share a cached schedule.
pub(crate) fn schedule_key(
    front_end: u64,
    clock_ns: f64,
    broadcast_aware: bool,
    device_hash: u64,
    seed: u64,
    inject: &crate::options::RegisterInjection,
) -> u64 {
    combine(&[
        front_end,
        clock_ns.to_bits(),
        u64::from(broadcast_aware),
        if broadcast_aware { device_hash } else { 0 },
        if broadcast_aware { seed } else { 0 },
        if inject.is_enabled() {
            hash_debug(inject)
        } else {
            0
        },
    ])
}

/// Where an artifact request was answered from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheHit {
    /// Served from this session's in-memory cache — no rebuild.
    Memory,
    /// Rebuilt, but the persistent store already held a matching
    /// fingerprint: a previous process built the identical artifact.
    Disk,
    /// Rebuilt, new to both the session and the store (or no store).
    Miss,
}

/// Hit/miss totals across all stages of a session's cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Artifact requests served from the in-memory cache (no rebuild).
    pub hits: u64,
    /// Artifact requests that rebuilt, but whose fingerprint the
    /// persistent store already knew — cross-process warmth
    /// ([`CacheHit::Disk`]). Always 0 without a store backend.
    pub disk_hits: u64,
    /// Artifact requests that had to build fresh.
    pub misses: u64,
}

impl CacheStats {
    /// Total artifact requests (hits + disk hits + misses).
    pub fn requests(&self) -> u64 {
        self.hits + self.disk_hits + self.misses
    }

    /// In-memory hit fraction in `[0, 1]`; 1.0 for an untouched cache.
    /// Disk hits count as rebuilds here (the work was redone; only the
    /// fingerprint was known) — they are reported separately.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.disk_hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Per-stage hit/miss totals of a session's cache, so sweeps (and the
/// DSE driver) can see exactly how much front-end vs schedule work a
/// variant batch actually recomputed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageCacheStats {
    /// Front-end (verify/split/unroll/DCE) artifact requests.
    pub front_end: CacheStats,
    /// Schedule artifact requests.
    pub schedule: CacheStats,
}

impl StageCacheStats {
    /// Both stages summed (the legacy single-number view).
    pub(crate) fn total(&self) -> CacheStats {
        CacheStats {
            hits: self.front_end.hits + self.schedule.hits,
            disk_hits: self.front_end.disk_hits + self.schedule.disk_hits,
            misses: self.front_end.misses + self.schedule.misses,
        }
    }
}

/// One key's artifact: empty while its first requester builds it, so
/// every later requester waits on the slot instead of building again.
type Slot<T> = Arc<OnceLock<Arc<T>>>;

/// One stage's keyed artifact store.
struct StageCache<T> {
    map: Mutex<HashMap<u64, Slot<T>>>,
    hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
}

impl<T> Default for StageCache<T> {
    fn default() -> Self {
        StageCache {
            map: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

impl<T: Debug> StageCache<T> {
    /// Returns the artifact for `key`, building it on a miss. The map
    /// lock is held only to find or insert the key's slot, so flows of
    /// different keys build concurrently; flows racing on one key wait
    /// for its first requester's build and count as memory hits, so each
    /// key is built once per session whatever the thread count.
    ///
    /// With a persistent `backend`, an in-memory miss consults the store
    /// after the rebuild: a matching stored fingerprint classifies the
    /// request as [`CacheHit::Disk`] (another process already built the
    /// identical artifact); otherwise the fresh fingerprint is published
    /// and the request is a [`CacheHit::Miss`]. A *mismatched* stored
    /// fingerprint — a supposedly pure build that differed across
    /// processes — is counted as a miss and re-published, so the store's
    /// later-wins rule converges on this build and the divergence stays
    /// visible as a miss on a warm store.
    fn get_or_build(
        &self,
        key: u64,
        stage: StageKind,
        backend: Option<&dyn ArtifactBackend>,
        build: impl FnOnce() -> T,
    ) -> (Arc<T>, CacheHit) {
        let slot = Arc::clone(self.map.lock().unwrap().entry(key).or_default());
        let mut build_ms = None;
        let artifact = Arc::clone(slot.get_or_init(|| {
            let started = std::time::Instant::now();
            let built = Arc::new(build());
            build_ms = Some(started.elapsed().as_secs_f64() * 1e3);
            built
        }));
        let hit = match build_ms {
            Some(wall_ms) => self.classify(&artifact, key, stage, backend, wall_ms),
            None => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                CacheHit::Memory
            }
        };
        (artifact, hit)
    }

    /// Counts a fresh build as a disk hit or a miss, publishing its
    /// fingerprint unless the store already holds the same one.
    fn classify(
        &self,
        built: &T,
        key: u64,
        stage: StageKind,
        backend: Option<&dyn ArtifactBackend>,
        wall_ms: f64,
    ) -> CacheHit {
        if let Some(store) = backend {
            let fingerprint = hash_debug(built);
            if store.lookup(stage, key) == Some(fingerprint) {
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                return CacheHit::Disk;
            }
            store.publish(stage, key, fingerprint, wall_ms);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        CacheHit::Miss
    }

    /// Inserts an already-built artifact under an extra key (no stats) —
    /// used when one build is known valid for two keys, e.g. an identity
    /// dataflow split equals the unsplit front-end. A key that already
    /// holds (or is building) its artifact keeps it: builds are
    /// deterministic per key, so either is correct.
    fn seed(&self, key: u64, artifact: Arc<T>) {
        let slot = Arc::clone(self.map.lock().unwrap().entry(key).or_default());
        let _ = slot.set(artifact);
    }
}

/// The session-lifetime artifact cache, optionally backed by a
/// persistent store ([`ArtifactBackend`]). The backend never changes
/// what an artifact request *returns* — builds are deterministic and the
/// in-memory map always wins — it only classifies rebuilds as
/// cross-process warm or cold and feeds fresh fingerprints back.
#[derive(Default)]
pub(crate) struct ArtifactCache {
    front_ends: StageCache<FrontEndArtifact>,
    schedules: StageCache<ScheduleArtifact>,
    backend: Option<Arc<dyn ArtifactBackend>>,
}

impl ArtifactCache {
    pub(crate) fn set_backend(&mut self, backend: Arc<dyn ArtifactBackend>) {
        self.backend = Some(backend);
    }

    pub(crate) fn backend(&self) -> Option<&dyn ArtifactBackend> {
        self.backend.as_deref()
    }

    pub(crate) fn front_end(
        &self,
        key: u64,
        build: impl FnOnce() -> FrontEndArtifact,
    ) -> (Arc<FrontEndArtifact>, CacheHit) {
        self.front_ends
            .get_or_build(key, StageKind::FrontEnd, self.backend.as_deref(), build)
    }

    pub(crate) fn seed_front_end(&self, key: u64, artifact: Arc<FrontEndArtifact>) {
        self.front_ends.seed(key, artifact);
    }

    pub(crate) fn schedule(
        &self,
        key: u64,
        build: impl FnOnce() -> ScheduleArtifact,
    ) -> (Arc<ScheduleArtifact>, CacheHit) {
        self.schedules
            .get_or_build(key, StageKind::Schedule, self.backend.as_deref(), build)
    }

    pub(crate) fn stats(&self) -> CacheStats {
        self.stats_by_stage().total()
    }

    pub(crate) fn stats_by_stage(&self) -> StageCacheStats {
        StageCacheStats {
            front_end: CacheStats {
                hits: self.front_ends.hits.load(Ordering::Relaxed),
                disk_hits: self.front_ends.disk_hits.load(Ordering::Relaxed),
                misses: self.front_ends.misses.load(Ordering::Relaxed),
            },
            schedule: CacheStats {
                hits: self.schedules.hits.load(Ordering::Relaxed),
                disk_hits: self.schedules.disk_hits.load(Ordering::Relaxed),
                misses: self.schedules.misses.load(Ordering::Relaxed),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_deterministic_and_content_sensitive() {
        assert_eq!(hash_debug(&(1u32, "a")), hash_debug(&(1u32, "a")));
        assert_ne!(hash_debug(&(1u32, "a")), hash_debug(&(2u32, "a")));
        assert_ne!(combine(&[1, 2]), combine(&[2, 1]), "order must matter");
    }

    #[test]
    fn schedule_key_ignores_device_and_seed_without_ba() {
        use crate::options::RegisterInjection;
        let off = RegisterInjection::Off;
        let k = |dev, seed| schedule_key(7, 3.3, false, dev, seed, &off);
        assert_eq!(k(1, 10), k(2, 20));
        let ba = |dev, seed| schedule_key(7, 3.3, true, dev, seed, &off);
        assert_ne!(ba(1, 10), ba(2, 10));
        assert_ne!(ba(1, 10), ba(1, 20));
        assert_ne!(k(1, 10), ba(1, 10));
    }

    #[test]
    fn schedule_key_distinguishes_injection_boundary_sets() {
        use crate::options::RegisterInjection;
        let k = |inject: &RegisterInjection| schedule_key(7, 3.3, true, 1, 10, inject);
        let off = k(&RegisterInjection::Off);
        let one = k(&RegisterInjection::at(vec![1]));
        let two = k(&RegisterInjection::at(vec![1, 2]));
        assert_ne!(off, one, "injected schedules must never hit Off's cache");
        assert_ne!(one, two, "distinct boundary sets must key apart");
        // Canonicalization: order and duplicates collapse to one key.
        assert_eq!(two, k(&RegisterInjection::at(vec![2, 1, 2])));
    }

    #[test]
    fn random_front_end_inputs_never_collide() {
        // 200 fuzzed designs × both split settings → 400 front-end keys.
        // FNV-1a over the debug form must keep them all distinct: a
        // collision would silently serve one design's unroll to another.
        let mut keys = std::collections::HashSet::new();
        let mut hashes = std::collections::HashSet::new();
        for seed in 0..200u64 {
            let design = hlsb_sim::random_design(seed);
            let h = hash_debug(&design);
            assert!(hashes.insert(h), "design hash collision at seed {seed}");
            for split in [false, true] {
                assert!(
                    keys.insert(front_end_key(h, split)),
                    "front-end key collision at seed {seed}, split {split}"
                );
            }
        }
    }

    #[test]
    fn clock_sweep_variants_share_front_end_but_not_schedule_keys() {
        // The clock-independent keying rule: sweeping the clock over one
        // design must reuse the front-end artifact while producing a
        // distinct schedule key per clock.
        let design = hlsb_sim::random_design(1);
        let h = hash_debug(&design);
        for split in [false, true] {
            let fe = front_end_key(h, split);
            let mut sched_keys = std::collections::HashSet::new();
            for clock_ns in [2.0f64, 3.0, 3.33, 5.0] {
                // front_end_key takes no clock at all — the shared key is
                // the same `fe` for every sweep point by construction.
                for ba in [false, true] {
                    let off = crate::options::RegisterInjection::Off;
                    sched_keys.insert(schedule_key(fe, clock_ns, ba, 7, 3, &off));
                }
            }
            assert_eq!(sched_keys.len(), 8, "schedules must key per clock");
        }
    }

    #[test]
    fn stage_cache_hits_and_seeding() {
        let cache: StageCache<u32> = StageCache::default();
        let mut builds = 0;
        let (a, hit) = cache.get_or_build(1, StageKind::FrontEnd, None, || {
            builds += 1;
            42
        });
        assert_eq!(hit, CacheHit::Miss);
        let (b, hit) = cache.get_or_build(1, StageKind::FrontEnd, None, || {
            builds += 1;
            42
        });
        assert_eq!(hit, CacheHit::Memory);
        assert_eq!(builds, 1);
        assert_eq!(*a, *b);

        cache.seed(2, a);
        let (c, hit) = cache.get_or_build(2, StageKind::FrontEnd, None, || {
            builds += 1;
            0
        });
        assert_eq!(hit, CacheHit::Memory, "seeded key must hit");
        assert_eq!(*c, 42);
        assert_eq!(builds, 1);
        assert_eq!(cache.hits.load(Ordering::Relaxed), 2);
        assert_eq!(cache.misses.load(Ordering::Relaxed), 1);
        assert_eq!(cache.disk_hits.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn a_latecomer_waits_for_the_build_in_flight() {
        // The second request arrives while the first is still building
        // (forced by the channel): it must not build, and it counts as a
        // memory hit once the first build lands.
        let cache: StageCache<u32> = StageCache::default();
        let cache = &cache;
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let (first, late) = std::thread::scope(|s| {
            let first = s.spawn(move || {
                cache.get_or_build(1, StageKind::FrontEnd, None, || {
                    started_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    42
                })
            });
            started_rx.recv().unwrap();
            let late = s.spawn(move || {
                cache.get_or_build(1, StageKind::FrontEnd, None, || {
                    unreachable!("a latecomer must not build")
                })
            });
            release_tx.send(()).unwrap();
            (first.join().unwrap(), late.join().unwrap())
        });
        assert_eq!((*first.0, first.1), (42, CacheHit::Miss));
        assert_eq!((*late.0, late.1), (42, CacheHit::Memory));
        assert!(Arc::ptr_eq(&first.0, &late.0), "one artifact for one key");
    }

    #[test]
    fn per_stage_stats_split_hits_by_stage() {
        let cache = ArtifactCache::default();
        let design = hlsb_sim::random_design(3);
        let fe = || crate::passes::front_end::run(&design, false);
        cache.front_end(1, fe);
        cache.front_end(1, fe);
        let by_stage = cache.stats_by_stage();
        assert_eq!(
            by_stage.front_end,
            CacheStats {
                hits: 1,
                disk_hits: 0,
                misses: 1
            }
        );
        assert_eq!(by_stage.schedule, CacheStats::default());
        assert_eq!(by_stage.total(), cache.stats());
        assert!((by_stage.front_end.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(by_stage.schedule.hit_rate(), 1.0, "empty cache rate is 1");
    }

    #[test]
    fn disk_backend_classifies_rebuilds_and_audits_mismatches() {
        let design = hlsb_sim::random_design(5);
        let store: Arc<hlsb_store::ArtifactStore> =
            Arc::new(hlsb_store::ArtifactStore::in_memory());

        // Process 1: cold store → every rebuild is a Miss and publishes.
        let mut cache = ArtifactCache::default();
        cache.set_backend(Arc::clone(&store) as Arc<dyn ArtifactBackend>);
        let fe = || crate::passes::front_end::run(&design, false);
        let (built, hit) = cache.front_end(1, fe);
        assert_eq!(hit, CacheHit::Miss);
        let published = store.lookup(StageKind::FrontEnd, 1).expect("published");
        assert_eq!(published, hash_debug(&*built));
        // Same process, same key: the in-memory map answers.
        assert_eq!(cache.front_end(1, fe).1, CacheHit::Memory);

        // Process 2 (fresh cache, shared store): the rebuild matches the
        // stored fingerprint → Disk.
        let mut cache2 = ArtifactCache::default();
        cache2.set_backend(Arc::clone(&store) as Arc<dyn ArtifactBackend>);
        assert_eq!(cache2.front_end(1, fe).1, CacheHit::Disk);
        assert_eq!(cache2.stats_by_stage().front_end.disk_hits, 1);
        assert_eq!(cache2.stats_by_stage().front_end.misses, 0);

        // A corrupted fingerprint is a mismatch: classified Miss, and the
        // correct fingerprint is re-published (later wins) so the next
        // process sees Disk again.
        store.publish(StageKind::FrontEnd, 1, 0xBAD, 0.0);
        let mut cache3 = ArtifactCache::default();
        cache3.set_backend(Arc::clone(&store) as Arc<dyn ArtifactBackend>);
        assert_eq!(cache3.front_end(1, fe).1, CacheHit::Miss);
        assert_eq!(store.lookup(StageKind::FrontEnd, 1), Some(published));
        let mut cache4 = ArtifactCache::default();
        cache4.set_backend(store as Arc<dyn ArtifactBackend>);
        assert_eq!(cache4.front_end(1, fe).1, CacheHit::Disk);
    }

    #[test]
    fn racing_flows_of_one_design_build_each_key_once() {
        // The seven clock targets of a stream-buffer sweep share one
        // front end. Run at two threads, a flow that asks for it while
        // another is building it must wait and count as a hit, so every
        // repetition reads the sequential per-stage counts (one
        // front-end miss, six hits, seven schedule misses).
        let bench = hlsb_benchmarks::stream_buffer::benchmark();
        let flows: Vec<crate::Flow> = [150.0, 200.0, 250.0, 300.0, 333.0, 400.0, 500.0]
            .iter()
            .map(|&mhz| {
                crate::Flow::new(bench.design.clone())
                    .device(bench.device.clone())
                    .clock_mhz(mhz)
                    .options(crate::OptimizationOptions::all())
                    .place_effort(crate::PlaceEffort::Fast)
                    .place_seeds(1)
            })
            .collect();
        let counts = |threads: usize| {
            let session = crate::FlowSession::with_threads(threads);
            for r in session.run_many(&flows) {
                r.expect("flow succeeds");
            }
            session.cache_stats_by_stage()
        };
        let sequential = counts(1);
        assert_eq!(
            (sequential.front_end.hits, sequential.front_end.misses),
            (6, 1)
        );
        assert_eq!(
            (sequential.schedule.hits, sequential.schedule.misses),
            (0, 7)
        );
        for rep in 0..20 {
            assert_eq!(counts(2), sequential, "repetition {rep} at 2 threads");
        }
    }
}
