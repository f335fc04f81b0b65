//! The memoizing query engine.
//!
//! An [`Engine`] answers *queries*: `(stage, input fingerprint) ->
//! value`. Answers come from, in order, the in-memory store, the
//! optional on-disk cache, and finally the supplied compute closure —
//! whose result is then written back to both. Stages chain their keys
//! through the fingerprints of intermediate *outputs*, which is what
//! gives early cutoff: when an edited source elaborates to an unchanged
//! library, every downstream stage keys identically and is served from
//! cache.
//!
//! The engine is `Sync`: batch workers and serve workers on separate
//! threads share one engine (and therefore one cache) through
//! `&Engine`. The memory tier is one LRU behind one mutex, held only
//! for a map lookup or an insertion, never across a compute or a disk
//! read.
//!
//! Eviction is exact touch-on-hit LRU and nothing else: the store never
//! holds more than `mem_entries` entries, a memory hit refreshes the
//! entry, so hot entries survive capacity pressure, and an entry read
//! back from the disk tier re-enters as the most recent.

use crate::codec::{Dec, Enc, Persist};
use crate::disk::DiskCache;
use silc_geom::Fp;
use silc_trace::{names, Tracer};
use std::any::Any;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// One pipeline stage, identifying a query family. The tag goes into
/// persisted entry headers (stable across builds); the name goes into
/// file names and diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stage {
    /// Short stable name, e.g. `"drc"`.
    pub name: &'static str,
    /// Stable one-byte id for entry headers.
    pub tag: u8,
}

impl Stage {
    /// SIL source → elaborated design.
    pub const ELABORATE: Stage = Stage {
        name: "elaborate",
        tag: 0,
    };
    /// Design → flattened per-layer geometry + die statistics. No product
    /// stage asks it any more; the benchmark ledger still replays it.
    pub const FLATTEN: Stage = Stage {
        name: "flatten",
        tag: 1,
    };
    /// Design + rules → DRC report.
    pub const DRC: Stage = Stage {
        name: "drc",
        tag: 2,
    };
    /// Design → CIF text.
    pub const CIF: Stage = Stage {
        name: "cif",
        tag: 3,
    };
    /// Design → extracted netlist summary.
    pub const EXTRACT: Stage = Stage {
        name: "extract",
        tag: 4,
    };
    /// Machine + cycle budget → simulation results.
    pub const SIM: Stage = Stage {
        name: "sim",
        tag: 5,
    };
    /// Machine → module allocation.
    pub const SYNTH: Stage = Stage {
        name: "synth",
        tag: 6,
    };
    /// PLA table → personality + layout products.
    pub const PLA: Stage = Stage {
        name: "pla",
        tag: 7,
    };
    /// Netlist + stack + floorplan → routed layout products.
    pub const PNR: Stage = Stage {
        name: "pnr",
        tag: 8,
    };
    /// Implementation + specification → equivalence verdict.
    pub const VERIFY: Stage = Stage {
        name: "verify",
        tag: 9,
    };
    /// Design → what it expands to (element count, die), from the hierarchy.
    pub const DIE: Stage = Stage {
        name: "die",
        tag: 10,
    };
}

/// The default worker-thread count for parallel front-ends (`silc
/// batch` job workers, `silc serve` compute workers): the machine's
/// available parallelism clamped to at most 8, falling back to 2 when
/// the machine cannot say.
pub fn default_parallelism() -> usize {
    std::thread::available_parallelism().map_or(2, |n| n.get().min(8))
}

/// Engine construction options.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Directory for the persistent cache; `None` = in-memory only.
    pub cache_dir: Option<PathBuf>,
    /// In-memory entry budget.
    pub mem_entries: usize,
    /// Receives `incr.*` counters (hits, misses, bytes, evictions).
    pub tracer: Tracer,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            cache_dir: None,
            mem_entries: 4096,
            tracer: Tracer::disabled(),
        }
    }
}

/// Per-job cache statistics, threaded through pipeline queries so a
/// batch run can report hits and misses per manifest line while the
/// engine's tracer accumulates the global totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobStats {
    /// Queries answered from cache (memory or disk).
    pub hits: u64,
    /// Queries that recomputed.
    pub misses: u64,
}

type MemKey = (u8, u128);

struct Slot {
    value: Arc<dyn Any + Send + Sync>,
    /// Last-touch sequence number; identifies this entry's one live
    /// record in the recency queue.
    stamp: u64,
}

/// The memory tier. The recency queue is *lazy-stamped*: touching an
/// entry pushes a fresh `(stamp, key)` record and bumps the entry's
/// stamp, leaving the old record behind as a tombstone that eviction
/// skips. The queue is compacted when tombstones dominate.
#[derive(Default)]
struct Shard {
    entries: HashMap<MemKey, Slot>,
    order: VecDeque<(u64, MemKey)>,
    seq: u64,
}

impl Shard {
    /// Makes `key`'s entry the most recent one.
    fn touch(&mut self, key: MemKey) {
        if let Some(slot) = self.entries.get_mut(&key) {
            self.seq += 1;
            slot.stamp = self.seq;
            self.order.push_back((self.seq, key));
            self.compact_if_bloated();
        }
    }

    /// Inserts (or replaces) an entry as the most recent, then evicts
    /// the least-recent entries while more than `budget` are held.
    /// Returns the number of evictions.
    fn insert(&mut self, key: MemKey, value: Arc<dyn Any + Send + Sync>, budget: usize) -> u64 {
        self.seq += 1;
        let stamp = self.seq;
        self.entries.insert(key, Slot { value, stamp });
        self.order.push_back((stamp, key));
        let mut evicted = 0;
        while self.entries.len() > budget {
            let Some((stamp, old)) = self.order.pop_front() else {
                break;
            };
            if self.entries.get(&old).is_some_and(|s| s.stamp == stamp) {
                self.entries.remove(&old);
                evicted += 1;
            }
        }
        self.compact_if_bloated();
        evicted
    }

    fn compact_if_bloated(&mut self) {
        if self.order.len() > self.entries.len() * 2 + 16 {
            let entries = &self.entries;
            self.order
                .retain(|&(stamp, key)| entries.get(&key).is_some_and(|s| s.stamp == stamp));
        }
    }
}

/// The memoizing query engine. See the module docs.
pub struct Engine {
    mem: Mutex<Shard>,
    /// In-memory entry budget.
    budget: usize,
    disk: Option<DiskCache>,
    tracer: Tracer,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("disk", &self.disk)
            .field("budget", &self.budget)
            .finish_non_exhaustive()
    }
}

impl Engine {
    /// Builds an engine from `config`, opening (and creating) the cache
    /// directory when one is given.
    ///
    /// # Errors
    ///
    /// Returns a message when the cache directory cannot be created.
    pub fn new(config: EngineConfig) -> Result<Engine, String> {
        let disk = match config.cache_dir {
            Some(dir) => Some(DiskCache::open(dir)?),
            None => None,
        };
        Ok(Engine {
            mem: Mutex::default(),
            budget: config.mem_entries.max(1),
            disk,
            tracer: config.tracer,
        })
    }

    /// An engine with no persistence and a disabled tracer.
    ///
    /// # Panics
    ///
    /// Never — the default configuration cannot fail.
    pub fn in_memory() -> Engine {
        Engine::new(EngineConfig::default()).expect("in-memory engine cannot fail")
    }

    /// The tracer pipeline stages should record their spans on.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// True when a persistent cache directory is attached.
    pub fn is_persistent(&self) -> bool {
        self.disk.is_some()
    }

    /// Entries currently held in the memory tier.
    pub fn mem_entries(&self) -> usize {
        self.mem.lock().expect("engine memory tier").entries.len()
    }

    /// Answers the query `(stage, key)`, computing (and caching) on
    /// miss. Results are shared: repeated queries return clones of one
    /// `Arc`.
    ///
    /// # Errors
    ///
    /// Propagates the compute closure's error, prefixed with the stage
    /// name (`"elaborate: ..."`), so callers — the CLI, batch report
    /// rows, serve responses — always know *which* stage failed. Cache
    /// failures are never errors — a damaged or unwritable cache
    /// degrades to recomputes.
    pub fn query<T, F>(
        &self,
        stage: Stage,
        key: Fp,
        stats: &mut JobStats,
        compute: F,
    ) -> Result<Arc<T>, String>
    where
        T: Persist + Send + Sync + 'static,
        F: FnOnce() -> Result<T, String>,
    {
        let mem_key: MemKey = (stage.tag, key.raw());
        {
            let mut mem = self.mem.lock().expect("engine memory tier");
            if let Some(slot) = mem.entries.get(&mem_key) {
                if let Ok(value) = Arc::clone(&slot.value).downcast::<T>() {
                    mem.touch(mem_key);
                    drop(mem);
                    stats.hits += 1;
                    self.tracer.add(names::INCR_HIT, 1);
                    self.tracer.add(names::INCR_MEM_HIT, 1);
                    return Ok(value);
                }
            }
        }
        if let Some(disk) = &self.disk {
            if let Some(payload) = disk.load(stage, key) {
                let mut d = Dec::new(&payload);
                match T::decode(&mut d) {
                    Ok(value) if d.is_done() => {
                        let value = Arc::new(value);
                        self.insert_mem(mem_key, Arc::clone(&value) as _);
                        stats.hits += 1;
                        self.tracer.add(names::INCR_HIT, 1);
                        self.tracer.add(names::INCR_DISK_HIT, 1);
                        return Ok(value);
                    }
                    Ok(_) => eprintln!(
                        "silc-incr: warning: stale `{}` cache entry (trailing bytes); recomputing",
                        stage.name
                    ),
                    Err(reason) => eprintln!(
                        "silc-incr: warning: undecodable `{}` cache entry ({reason}); recomputing",
                        stage.name
                    ),
                }
            }
        }
        let value = Arc::new(compute().map_err(|e| format!("{}: {e}", stage.name))?);
        stats.misses += 1;
        self.tracer.add(names::INCR_MISS, 1);
        self.insert_mem(mem_key, Arc::clone(&value) as _);
        if let Some(disk) = &self.disk {
            let mut e = Enc::new();
            value.encode(&mut e);
            let written = disk.store(stage, key, &e.into_bytes());
            self.tracer.add(names::INCR_STORE_BYTES, written);
        }
        Ok(value)
    }

    fn insert_mem(&self, key: MemKey, value: Arc<dyn Any + Send + Sync>) {
        let evicted = self
            .mem
            .lock()
            .expect("engine memory tier")
            .insert(key, value, self.budget);
        if evicted > 0 {
            self.tracer.add(names::INCR_EVICTIONS, evicted);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn key(n: u64) -> Fp {
        Fp::from_raw(u128::from(n) | 0xfeed << 96)
    }

    #[test]
    fn memoizes_and_counts() {
        let engine = Engine::in_memory();
        let calls = AtomicU64::new(0);
        let mut stats = JobStats::default();
        let compute = || {
            calls.fetch_add(1, Ordering::Relaxed);
            Ok(99u64)
        };
        let a = engine
            .query(Stage::DRC, key(1), &mut stats, compute)
            .unwrap();
        let b = engine
            .query(Stage::DRC, key(1), &mut stats, || {
                calls.fetch_add(1, Ordering::Relaxed);
                Ok(0u64)
            })
            .unwrap();
        assert_eq!((*a, *b), (99, 99));
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        assert_eq!(stats, JobStats { hits: 1, misses: 1 });
    }

    #[test]
    fn stages_do_not_collide() {
        let engine = Engine::in_memory();
        let mut stats = JobStats::default();
        engine
            .query(Stage::CIF, key(2), &mut stats, || Ok("cif".to_string()))
            .unwrap();
        let drc = engine
            .query(Stage::DRC, key(2), &mut stats, || Ok("drc".to_string()))
            .unwrap();
        assert_eq!(*drc, "drc");
        assert_eq!(stats.misses, 2);
    }

    #[test]
    fn engine_is_shareable_across_threads() {
        // The serve daemon and batch workers hand `&Engine` to many
        // threads at once; the engine must stay `Send + Sync` (the
        // memory-tier lock is the only interior mutability, held
        // per-operation).
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Engine>();
        assert_send_sync::<EngineConfig>();
    }

    #[test]
    fn errors_carry_the_failing_stage_name_and_are_not_cached() {
        let engine = Engine::in_memory();
        let mut stats = JobStats::default();
        let failed: Result<Arc<u64>, String> =
            engine.query(Stage::SIM, key(3), &mut stats, || Err("boom".into()));
        assert_eq!(failed.unwrap_err(), "sim: boom");
        let ok = engine
            .query(Stage::SIM, key(3), &mut stats, || Ok(5u64))
            .unwrap();
        assert_eq!(*ok, 5);
    }

    #[test]
    fn eviction_respects_capacity() {
        let tracer = Tracer::enabled();
        let engine = Engine::new(EngineConfig {
            mem_entries: 2,
            tracer: tracer.clone(),
            ..EngineConfig::default()
        })
        .unwrap();
        let mut stats = JobStats::default();
        for n in 0..5 {
            engine
                .query(Stage::SIM, key(10 + n), &mut stats, || Ok(n))
                .unwrap();
        }
        // Oldest entries were evicted: re-querying them recomputes (and
        // that re-insert evicts once more).
        engine
            .query(Stage::SIM, key(10), &mut stats, || Ok(0u64))
            .unwrap();
        assert_eq!(stats.misses, 6);
        let report = tracer.finish();
        assert_eq!(report.counter(names::INCR_EVICTIONS), Some(4));
        assert_eq!(report.counter(names::INCR_MISS), Some(6));
    }

    /// A hit refreshes recency: a hot entry inserted first outlives any
    /// number of colder, newer ones in a two-entry cache.
    #[test]
    fn repeatedly_hit_entry_survives_capacity_pressure() {
        let engine = Engine::new(EngineConfig {
            mem_entries: 2,
            ..EngineConfig::default()
        })
        .unwrap();
        let hot_computes = AtomicU64::new(0);
        let mut stats = JobStats::default();
        let query_hot = |stats: &mut JobStats| {
            engine
                .query(Stage::SIM, key(1000), stats, || {
                    hot_computes.fetch_add(1, Ordering::Relaxed);
                    Ok(42u64)
                })
                .unwrap()
        };
        query_hot(&mut stats);
        for n in 0..6 {
            engine
                .query(Stage::SIM, key(2000 + n), &mut stats, || Ok(n))
                .unwrap();
            query_hot(&mut stats);
        }
        assert_eq!(hot_computes.load(Ordering::Relaxed), 1);
        assert_eq!(engine.mem_entries(), 2);
    }

    #[test]
    fn default_parallelism_is_clamped() {
        let n = default_parallelism();
        assert!((1..=8).contains(&n), "default_parallelism() = {n}");
    }

    #[test]
    fn disk_round_trip_survives_a_new_engine() {
        let dir = std::env::temp_dir().join(format!("silc-incr-engine-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = |tracer: Tracer| EngineConfig {
            cache_dir: Some(dir.clone()),
            tracer,
            ..EngineConfig::default()
        };
        let mut stats = JobStats::default();
        {
            let engine = Engine::new(config(Tracer::disabled())).unwrap();
            engine
                .query(Stage::CIF, key(7), &mut stats, || {
                    Ok("persisted".to_string())
                })
                .unwrap();
        }
        let tracer = Tracer::enabled();
        let engine = Engine::new(config(tracer.clone())).unwrap();
        let value = engine
            .query(Stage::CIF, key(7), &mut stats, || {
                Err::<String, _>("should have hit disk".into())
            })
            .unwrap();
        assert_eq!(*value, "persisted");
        let report = tracer.finish();
        assert_eq!(report.counter(names::INCR_DISK_HIT), Some(1));
        assert_eq!(report.counter(names::INCR_HIT), Some(1));
    }
}
