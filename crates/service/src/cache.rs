//! The content-addressed compile cache.
//!
//! A cache entry maps the *content* of a compile request — the
//! canonical circuit text, the lattice geometry, and the effective
//! [`CompileOptions`](autobraid::pipeline::CompileOptions) — to the
//! canonical compile-report JSON. The determinism contract
//! (`docs/RUNTIME.md`: `CompileReport::canonical_json` is byte-stable
//! for a given input, whatever the thread count or wall clock) is what
//! makes a hit *provably* equivalent to recompiling: the cached bytes
//! are exactly the bytes a fresh compile would produce.
//!
//! Keys hash with FNV-1a (stable across processes and platforms, so a
//! future persistent cache can reuse them), but the full key string is
//! retained and compared on lookup — a 64-bit hash collision degrades
//! to a miss, never to a wrong report.
//!
//! Beside the reports sits a memo from the exact source text of a
//! request (and its format) to the [`CanonicalSource`] the key is built
//! from, bounded by the same capacity. A byte-identical resubmission
//! then builds its key without parsing or re-emitting the circuit, while
//! a reformatted one still parses to the same canonical text and so
//! shares the report entry. The memo too keeps the full source and
//! compares it on lookup: a collision costs a parse, never a wrong key.

use crate::protocol::SourceFormat;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::BuildHasher;
use std::sync::Arc;

/// 64-bit FNV-1a over a byte string: small, stable, and fast for the
/// kilobyte-scale keys a circuit produces.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// A content-address: the FNV-1a hash plus the full key text it was
/// computed from (kept to rule out collisions on lookup).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheKey {
    hash: u64,
    text: String,
}

impl CacheKey {
    /// Builds a key from its three content components. The components
    /// are joined with `\x1f` separators so no concatenation of
    /// different components can alias.
    pub fn new(circuit: &str, geometry: &str, options: &str) -> CacheKey {
        CacheKey::joined(&[circuit, "\x1f", geometry, "\x1f", options])
    }

    /// [`CacheKey::new`] whose circuit component is `name`, a newline and
    /// `qasm` — a named source's content address — copied once into the
    /// key rather than joined into a circuit string first.
    pub fn for_source(name: &str, qasm: &str, geometry: &str, options: &str) -> CacheKey {
        CacheKey::joined(&[name, "\n", qasm, "\x1f", geometry, "\x1f", options])
    }

    fn joined(parts: &[&str]) -> CacheKey {
        let mut text = String::with_capacity(parts.iter().map(|part| part.len()).sum());
        for part in parts {
            text.push_str(part);
        }
        CacheKey {
            hash: fnv1a64(text.as_bytes()),
            text,
        }
    }

    /// The stable 64-bit content hash.
    pub fn hash(&self) -> u64 {
        self.hash
    }
}

/// What a submitted source contributes to the content address: the
/// circuit's own name (the key uses it when the request carries no
/// label) and its re-emitted canonical QASM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanonicalSource {
    /// The name the parser gave the circuit.
    pub name: String,
    /// `qasm::emit` of the parsed circuit.
    pub qasm: String,
}

#[derive(Debug)]
struct Slot<K, V> {
    key: K,
    value: V,
    last_used: u64,
}

/// A least-recently-used map from a 64-bit hash to a value, holding the
/// full key beside it: a lookup whose key differs from the stored one
/// (a hash collision) finds nothing.
#[derive(Debug)]
struct Lru<K, V> {
    slots: HashMap<u64, Slot<K, V>>,
}

impl<K, V> Lru<K, V> {
    fn new() -> Self {
        Lru {
            slots: HashMap::new(),
        }
    }

    /// The value under `hash` if its key passes `same`, marked used at
    /// `tick`.
    fn get(&mut self, hash: u64, same: impl FnOnce(&K) -> bool, tick: u64) -> Option<&V> {
        let slot = self.slots.get_mut(&hash).filter(|slot| same(&slot.key))?;
        slot.last_used = tick;
        Some(&slot.value)
    }

    /// Inserts (or replaces) the entry under `hash`, first evicting the
    /// least-recently-used one when `capacity` entries are resident.
    /// Returns whether an entry was evicted.
    fn insert(&mut self, hash: u64, key: K, value: V, capacity: usize, tick: u64) -> bool {
        let mut evicted = false;
        if !self.slots.contains_key(&hash) && self.slots.len() >= capacity {
            let oldest = self.slots.iter().min_by_key(|(_, slot)| slot.last_used);
            if let Some(oldest) = oldest.map(|(&h, _)| h) {
                evicted = self.slots.remove(&oldest).is_some();
            }
        }
        let slot = Slot {
            key,
            value,
            last_used: tick,
        };
        self.slots.insert(hash, slot);
        evicted
    }
}

/// Point-in-time cache counters, reported under `gauges.cache` in the
/// `metrics` frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found nothing (or a hash collision).
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Configured capacity (0 = caching disabled).
    pub capacity: usize,
    /// Sources currently memoized (at most `capacity`).
    pub memo_entries: usize,
}

/// A least-recently-used map from [`CacheKey`] to canonical report
/// JSON, with hit/miss/eviction counters, and beside it a memo from
/// submitted source text to its [`CanonicalSource`], so a byte-identical
/// resubmission finds its key without parsing. Both hold at most
/// `capacity` entries.
///
/// ```
/// use autobraid_service::cache::{CacheKey, ReportCache};
///
/// let mut cache = ReportCache::new(2);
/// let key = CacheKey::new("qreg q[2];", "qubits=2", "strategy=autobraid-full");
/// assert!(cache.get(&key).is_none());
/// cache.insert(key.clone(), "{\"circuit\":\"x\"}");
/// assert_eq!(cache.get(&key).as_deref(), Some("{\"circuit\":\"x\"}"));
/// assert_eq!(cache.stats().hits, 1);
/// ```
#[derive(Debug)]
pub struct ReportCache {
    capacity: usize,
    reports: Lru<String, Arc<str>>,
    sources: Lru<(SourceFormat, String), Arc<CanonicalSource>>,
    /// Hashes submitted sources. Keyed per process, unlike
    /// [`fnv1a64`]: source text comes straight off the wire, and a
    /// crafted collision should not be able to pin one memo slot.
    source_hasher: RandomState,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl ReportCache {
    /// A cache holding at most `capacity` reports and as many memoized
    /// sources (0 disables both: every lookup misses and inserts are
    /// dropped).
    pub fn new(capacity: usize) -> ReportCache {
        ReportCache {
            capacity,
            reports: Lru::new(),
            sources: Lru::new(),
            source_hasher: RandomState::new(),
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Looks up a key, refreshing its recency on a hit. The report is
    /// shared, not copied.
    pub fn get(&mut self, key: &CacheKey) -> Option<Arc<str>> {
        self.tick += 1;
        let found = self
            .reports
            .get(key.hash, |text| *text == key.text, self.tick)
            .cloned();
        match found {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        found
    }

    /// Inserts (or replaces) an entry, evicting the least-recently-used
    /// one when at capacity.
    pub fn insert(&mut self, key: CacheKey, value: impl Into<Arc<str>>) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        let evicted =
            self.reports
                .insert(key.hash, key.text, value.into(), self.capacity, self.tick);
        self.evictions += u64::from(evicted);
    }

    /// The canonical form memoized for this exact source text, if any,
    /// refreshing its recency.
    pub fn source(&mut self, format: SourceFormat, source: &str) -> Option<Arc<CanonicalSource>> {
        self.tick += 1;
        let hash = self.source_hasher.hash_one((format, source));
        self.sources
            .get(hash, |(f, s)| *f == format && s == source, self.tick)
            .cloned()
    }

    /// Memoizes the canonical form of a source that parsed, evicting
    /// the least-recently-used memo when `capacity` are resident.
    pub fn remember_source(
        &mut self,
        format: SourceFormat,
        source: &str,
        canonical: Arc<CanonicalSource>,
    ) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        let hash = self.source_hasher.hash_one((format, source));
        let key = (format, source.to_string());
        self.sources
            .insert(hash, key, canonical, self.capacity, self.tick);
    }

    /// Current counters and occupancy.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            entries: self.reports.slots.len(),
            capacity: self.capacity,
            memo_entries: self.sources.slots.len(),
        }
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.reports.slots.len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.reports.slots.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: usize) -> CacheKey {
        CacheKey::new(
            &format!("circuit-{n}"),
            "qubits=4",
            "strategy=autobraid-full",
        )
    }

    #[test]
    fn fnv_is_stable() {
        // Published FNV-1a test vectors: the hash must never drift, or
        // a future persistent cache would silently invalidate.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    /// The one-pass key is the two-step one: the circuit text joined
    /// first, then joined again with the other components.
    #[test]
    fn a_source_key_equals_the_two_step_construction() {
        let qasm = "OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[1];\n";
        for name in ["", "bell", "é\x1f🦀"] {
            for (geometry, options) in [("", ""), ("distance=3", "strategy=baseline")] {
                let key = CacheKey::for_source(name, qasm, geometry, options);
                let circuit = format!("{name}\n{qasm}");
                let text = format!("{circuit}\x1f{geometry}\x1f{options}");
                assert_eq!(key.hash, fnv1a64(text.as_bytes()));
                assert_eq!(key.text, text);
                assert_eq!(key.text.capacity(), text.len(), "sized once");
                assert_eq!(key, CacheKey::new(&circuit, geometry, options));
            }
        }
    }

    #[test]
    fn distinct_components_never_alias() {
        // "ab" + "c" vs "a" + "bc" must produce different keys.
        let k1 = CacheKey::new("ab", "c", "x");
        let k2 = CacheKey::new("a", "bc", "x");
        assert_ne!(k1, k2);
        let mut cache = ReportCache::new(4);
        cache.insert(k1, "one");
        assert!(cache.get(&k2).is_none());
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let mut cache = ReportCache::new(2);
        cache.insert(key(1), "v1");
        cache.insert(key(2), "v2");
        assert_eq!(cache.get(&key(1)).as_deref(), Some("v1")); // warm 1
        cache.insert(key(3), "v3"); // evicts 2
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&key(2)).is_none());
        assert_eq!(cache.get(&key(1)).as_deref(), Some("v1"));
        assert_eq!(cache.get(&key(3)).as_deref(), Some("v3"));
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.hits, 3);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.capacity, 2);
    }

    #[test]
    fn reinserting_replaces_without_eviction() {
        let mut cache = ReportCache::new(1);
        cache.insert(key(1), "old");
        cache.insert(key(1), "new");
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.get(&key(1)).as_deref(), Some("new"));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = ReportCache::new(0);
        cache.insert(key(1), "v");
        assert!(cache.is_empty());
        assert!(cache.get(&key(1)).is_none());
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn hash_collisions_degrade_to_misses() {
        let mut cache = ReportCache::new(4);
        let k = key(1);
        // Forge a colliding key: same hash, different text.
        let forged = CacheKey {
            hash: k.hash(),
            text: "something else".into(),
        };
        cache.insert(k, "real");
        assert!(cache.get(&forged).is_none(), "collision must miss");
    }

    #[test]
    fn the_memo_matches_format_and_full_source_and_stays_bounded() {
        let canonical = |name: &str| {
            Arc::new(CanonicalSource {
                name: name.to_string(),
                qasm: format!("// {name}"),
            })
        };
        let mut cache = ReportCache::new(2);
        cache.remember_source(SourceFormat::Qasm, "a", canonical("a"));
        assert_eq!(cache.source(SourceFormat::Qasm, "a"), Some(canonical("a")));
        assert_eq!(cache.source(SourceFormat::Conformance, "a"), None);
        // A forged slot under the hash of "b" holding another source.
        let hash = cache.source_hasher.hash_one((SourceFormat::Qasm, "b"));
        let forged = (SourceFormat::Qasm, "not b".to_string());
        cache.sources.insert(hash, forged, canonical("x"), 2, 0);
        assert_eq!(
            cache.source(SourceFormat::Qasm, "b"),
            None,
            "collision must miss"
        );
        cache.source(SourceFormat::Qasm, "a"); // warm "a"
        cache.remember_source(SourceFormat::Qasm, "c", canonical("c")); // evicts the forgery
        assert_eq!(cache.stats().memo_entries, 2);
        assert!(cache.source(SourceFormat::Qasm, "a").is_some());
        assert!(cache.source(SourceFormat::Qasm, "c").is_some());
        assert_eq!(
            cache.stats().evictions,
            0,
            "memo evictions are not report evictions"
        );

        let mut disabled = ReportCache::new(0);
        disabled.remember_source(SourceFormat::Qasm, "a", canonical("a"));
        assert_eq!(disabled.stats().memo_entries, 0);
    }
}
