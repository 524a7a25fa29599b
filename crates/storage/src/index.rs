//! Opening a built E2LSHoS index and its in-DRAM metadata.
//!
//! The paper keeps only "relatively small index-related data" in DRAM
//! (Table 6): here that is the superblock-derived parameters, the
//! regenerated hash family, each table's occupancy filter — a blocked
//! Bloom filter with one block per hash-table slot (see
//! [`TableGeometry::filter_positions`]) — and each table's slot
//! directory, the `2^u` chain-head pointers of its hash table. The
//! filter is what lets the query engine avoid issuing I/Os for empty
//! buckets (Section 4.3: "empty buckets are not counted as it is easy
//! to avoid issuing I/Os for them"); the directory is what lets a probe
//! go straight to its head block, one read instead of the paper's two
//! (DESIGN §3). The bucket blocks stay on the device; the table region
//! stays there too, as the durable copy the directory is loaded from.

use crate::build::Superblock;
use crate::device::Device;
use crate::layout::{EntryCodec, TableGeometry, SUPERBLOCK_SIZE};
use e2lsh_core::lsh::HashFamily;
use e2lsh_core::params::E2lshParams;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};

/// An opened on-storage index: DRAM-resident metadata (filters and slot
/// directories); every bucket block stays on the device.
///
/// The occupancy filters are atomic words so an online writer (the
/// serving layer's update path) can publish a newly inserted hash
/// value's bits into a *live* index with
/// [`StorageIndex::set_filter_bit`] while query threads keep reading
/// them — inserts only ever set bits, so a racing reader sees at worst
/// a momentarily stale `false`, which costs one skipped probe for a
/// just-inserted object, never a wrong answer for existing ones. The
/// slot directory is atomic for the same reason: the writer publishes a
/// slot's new head with [`StorageIndex::set_head`] (Release) only after
/// the block it points at is on storage and out of every cache, and a
/// query loads it with [`StorageIndex::head`] (Acquire).
pub struct StorageIndex {
    params: E2lshParams,
    family: HashFamily,
    geometry: TableGeometry,
    codec: EntryCodec,
    /// Per table: the filter words, as on storage.
    occupancy: Vec<Box<[AtomicU64]>>,
    /// Per table: the `2^u` slot words (chain-head addresses, 0 = empty
    /// slot), as on storage.
    directory: Vec<Box<[AtomicU64]>>,
    n: usize,
    dim: usize,
    total_bytes: u64,
}

impl StorageIndex {
    /// Open an index by reading its superblock and its occupancy-filter
    /// region from `device`. An image of another format version is
    /// refused with [`io::ErrorKind::InvalidData`].
    pub fn open(device: &mut dyn Device) -> io::Result<Self> {
        let sb_bytes = device.read_sync(0, SUPERBLOCK_SIZE as u32);
        let sb = Superblock::decode(&sb_bytes)?;
        Self::from_superblock(sb, device)
    }

    fn from_superblock(sb: Superblock, device: &mut dyn Device) -> io::Result<Self> {
        let n = sb.n as usize;
        let params = E2lshParams {
            c: sb.c,
            w: sb.w,
            gamma: sb.gamma,
            n,
            m: sb.m as usize,
            l: sb.l as usize,
            s: sb.s as usize,
            rho: 0.0, // informational only; recomputable from (w, c)
            p1: e2lsh_core::params::collision_probability(sb.w as f64, 1.0),
            p2: e2lsh_core::params::collision_probability(sb.w as f64, sb.c as f64),
            radii: sb.radii.clone(),
        };
        let geometry = TableGeometry {
            u_bits: sb.u_bits,
            filter_bits: sb.filter_bits,
            num_radii: sb.radii.len(),
            l: sb.l as usize,
        };
        let codec = EntryCodec::new((sb.capacity as usize).max(n), sb.u_bits);
        let family = HashFamily::generate(
            sb.dim as usize,
            sb.m as usize,
            sb.w,
            sb.l as usize,
            &sb.radii,
            sb.seed,
        );

        // Load the per-table slot directories and occupancy filters into
        // DRAM (the paper keeps only small index metadata in memory;
        // this is that metadata).
        let tables = geometry.num_tables();
        let mut directory = Vec::with_capacity(tables);
        let mut occupancy = Vec::with_capacity(tables);
        for ri in 0..geometry.num_radii {
            for li in 0..geometry.l {
                let (table, filter) = (geometry.table_base(ri, li), geometry.filter_base(ri, li));
                directory.push(read_words(device, table, geometry.table_bytes()));
                occupancy.push(read_words(
                    device,
                    filter,
                    geometry.filter_bytes_per_table(),
                ));
            }
        }

        Ok(Self {
            params,
            family,
            geometry,
            codec,
            occupancy,
            directory,
            n,
            dim: sb.dim as usize,
            total_bytes: sb.total_bytes,
        })
    }

    /// Index parameters (as stored in the superblock).
    #[inline]
    pub fn params(&self) -> &E2lshParams {
        &self.params
    }

    /// The regenerated hash family.
    #[inline]
    pub fn family(&self) -> &HashFamily {
        &self.family
    }

    /// Table geometry.
    #[inline]
    pub fn geometry(&self) -> TableGeometry {
        self.geometry
    }

    /// Object-info codec.
    #[inline]
    pub fn codec(&self) -> EntryCodec {
        self.codec
    }

    /// Number of indexed objects.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the index holds no objects.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Point dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Total index size on storage in bytes (Table 6's "Index storage").
    #[inline]
    pub fn storage_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// DRAM bytes held by this handle: the occupancy filters, the slot
    /// directories and the hash family coefficients (Table 6's "(Index
    /// mem)").
    pub fn mem_bytes(&self) -> usize {
        let words: usize = self
            .occupancy
            .iter()
            .chain(&self.directory)
            .map(|b| b.len() * 8)
            .sum();
        let family = self.geometry.num_tables() * self.params.m * (self.dim + 1) * 4;
        words + family
    }

    /// Head-block address of slot `slot` (only its low `u` bits are used,
    /// as in [`TableGeometry::slot_addr`]) in table `(ri, li)`; 0 when
    /// the slot's chain is empty. A probe reads this instead of the
    /// slot's 512-byte table block, so it costs one I/O, not two.
    #[inline]
    pub fn head(&self, ri: usize, li: usize, slot: u64) -> u64 {
        let slots = &self.directory[ri * self.geometry.l + li];
        slots[(slot & (self.geometry.slots() - 1)) as usize].load(Ordering::Acquire)
    }

    /// Publish `head` as slot `slot`'s chain head in table `(ri, li)` —
    /// the live-index mirror of a slot-pointer write
    /// ([`crate::update::WriteTrace::heads`]). Call it only once the
    /// block `head` points at is on storage and invalidated in every
    /// cache over the file: a query that loads the new head must never
    /// meet a cached pre-write copy of a reused block.
    #[inline]
    pub fn set_head(&self, ri: usize, li: usize, slot: u64, head: u64) {
        let slots = &self.directory[ri * self.geometry.l + li];
        slots[(slot & (self.geometry.slots() - 1)) as usize].store(head, Ordering::Release);
    }

    /// False when the occupancy filter proves that no indexed object has
    /// hash value `h32` in table `(ri, li)` — some bit of the value's
    /// [`TableGeometry::filter_positions`] is clear — so the query engine
    /// skips the I/O entirely (paper Section 4.3). True means the probe
    /// *may* find candidates: the bucket is occupied, or other values of
    /// the same slot happen to cover all the bits (a false positive,
    /// which costs one bucket-block read, never an answer).
    #[inline]
    pub fn filter_hit(&self, ri: usize, li: usize, h32: u64) -> bool {
        let words = &self.occupancy[ri * self.geometry.l + li];
        self.geometry
            .filter_positions(h32)
            .iter()
            .all(|&(word, bit)| words[word].load(Ordering::Relaxed) & bit != 0)
    }

    /// Set the filter bits of hash value `h32` in table `(ri, li)` —
    /// the live-index mirror of [`crate::update::Updater`]'s on-storage
    /// filter write, safe to call while query threads read the filter.
    /// Inserts only ever set bits; the bits a delete strands merely cost
    /// wasted probes until maintenance rewrites the slot's block (the
    /// paper's trade-off of cheap deletes against rare rebuilds).
    #[inline]
    pub fn set_filter_bit(&self, ri: usize, li: usize, h32: u64) {
        let words = &self.occupancy[ri * self.geometry.l + li];
        for (word, bit) in self.geometry.filter_positions(h32) {
            words[word].fetch_or(bit, Ordering::Relaxed);
        }
    }

    /// Replace one filter word of table `(ri, li)` with `value` — the
    /// live-index mirror of [`crate::update::Updater::maintain`]'s
    /// tombstone GC, which *clears* bits and therefore cannot go
    /// through the OR-only [`StorageIndex::set_filter_bit`]. The
    /// value comes from an exact rescan of the slot's chain on the
    /// single writer thread (maintenance runs between writer ops): the
    /// slot's part of the word is the union of its surviving entries'
    /// bits, the rest is unchanged. A block that spans several words is
    /// published word by word, and a racing reader may test bits in old
    /// and new words alike — each is a superset of the live entries'
    /// bits in that word, so a live object never reads as absent.
    pub fn set_filter_word(&self, ri: usize, li: usize, word: usize, value: u64) {
        let t = ri * self.geometry.l + li;
        self.occupancy[t][word].store(value, Ordering::Relaxed);
    }

    /// A copy of the filter words of table `(ri, li)`, as they would be
    /// written to storage.
    #[cfg(test)]
    pub(crate) fn filter_words(&self, ri: usize, li: usize) -> Vec<u64> {
        self.occupancy[ri * self.geometry.l + li]
            .iter()
            .map(|w| w.load(Ordering::Relaxed))
            .collect()
    }

    /// Fraction of set filter bits over all tables (diagnostic).
    pub fn occupancy_rate(&self) -> f64 {
        let set: u64 = self
            .occupancy
            .iter()
            .flat_map(|b| b.iter())
            .map(|w| w.load(Ordering::Relaxed).count_ones() as u64)
            .sum();
        let total = self.geometry.num_tables() as u64 * (1u64 << self.geometry.filter_bits);
        set as f64 / total as f64
    }
}

/// `bytes` of little-endian words at `base`, read in chunks of at most
/// 1 MiB into an exactly sized atomic array.
fn read_words(device: &mut dyn Device, base: u64, bytes: u64) -> Box<[AtomicU64]> {
    const CHUNK: u64 = 1 << 20;
    let mut words = Vec::with_capacity((bytes / 8) as usize);
    let mut read = 0u64;
    while read < bytes {
        let len = CHUNK.min(bytes - read);
        let buf = device.read_sync(base + read, len as u32);
        words.extend(
            buf.chunks_exact(8)
                .map(|c| AtomicU64::new(u64::from_le_bytes(c.try_into().unwrap()))),
        );
        read += len;
    }
    words.into_boxed_slice()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_index, BuildConfig};
    use crate::device::sim::{Backing, DeviceProfile, SimStorage};
    use crate::testutil::{temp_path, test_seed};
    use e2lsh_core::dataset::Dataset;
    use rand::{Rng, SeedableRng};

    fn tiny_dataset(n: usize) -> Dataset {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(21);
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|_| (0..8).map(|_| rng.gen::<f32>() * 10.0).collect())
            .collect();
        Dataset::from_rows(&rows)
    }

    #[test]
    fn open_roundtrips_parameters() {
        let ds = tiny_dataset(400);
        let params = E2lshParams::derive(ds.len(), 2.0, 4.0, 1.0, ds.max_abs_coord(), 8);
        let path = temp_path("open_roundtrip.idx");
        let cfg = BuildConfig {
            seed: 99,
            ..Default::default()
        };
        build_index(&ds, &params, &cfg, &path).unwrap();
        let mut dev = SimStorage::new(DeviceProfile::ESSD, 1, Backing::open(&path).unwrap());
        let idx = StorageIndex::open(&mut dev).unwrap();
        assert_eq!(idx.len(), 400);
        assert_eq!(idx.dim(), 8);
        assert_eq!(idx.params().l, params.l);
        assert_eq!(idx.params().m, params.m);
        assert_eq!(idx.params().radii, params.radii);
        assert_eq!(idx.family().seed(), 99);
        assert!(idx.storage_bytes() > 0);
        assert!(idx.mem_bytes() > 0);
        // DRAM footprint must be far below the storage footprint.
        assert!((idx.mem_bytes() as u64) < idx.storage_bytes());
        std::fs::remove_file(&path).ok();
    }

    /// The filter never hides an indexed object (no false negatives, any
    /// object, any table), and on hash values nobody has it lies as
    /// rarely as a Bloom filter with this geometry should: within 15 %
    /// of the closed form `(1 − e^(−k·keys/bits))^k` averaged over the
    /// slots' actual loads, and strictly below what the same bits give
    /// as a prefix bitmap, `1 − e^(−keys/bits)` — the format-1 filter.
    #[test]
    fn occupancy_filter_has_no_false_negatives_and_a_bloom_false_positive_rate() {
        use crate::layout::{split_hash, FILTER_HASHES};
        use e2lsh_core::lsh::hash_v_bits;
        use std::collections::HashSet;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(test_seed() ^ 0xB100);
        let rows: Vec<Vec<f32>> = (0..4000)
            .map(|_| (0..8).map(|_| rng.gen::<f32>() * 10.0).collect())
            .collect();
        let ds = Dataset::from_rows(&rows);
        let params = E2lshParams::derive(ds.len(), 2.0, 4.0, 1.0, ds.max_abs_coord(), 8);
        let path = temp_path("occupancy.idx");
        build_index(&ds, &params, &BuildConfig::default(), &path).unwrap();
        let mut dev = SimStorage::new(DeviceProfile::ESSD, 1, Backing::open(&path).unwrap());
        let idx = StorageIndex::open(&mut dev).unwrap();
        let rate = idx.occupancy_rate();
        assert!(rate > 0.0 && rate < 1.0, "rate {rate}");

        let g = idx.geometry();
        let block_bits = (1u64 << (g.filter_bits - g.u_bits)) as f64;
        assert!(block_bits >= 32.0, "the test wants a Bloom-sized block");
        let k = FILTER_HASHES as f64;
        let mut scratch = Vec::new();
        for ri in 0..g.num_radii {
            let radius = idx.params().radii[ri];
            for li in 0..g.l {
                let members: HashSet<u64> = (0..ds.len())
                    .map(|oid| {
                        let key = idx.family().compound(ri, li).hash64(
                            ds.point(oid),
                            radius,
                            &mut scratch,
                        );
                        hash_v_bits(key, 32)
                    })
                    .collect();
                for &h32 in &members {
                    assert!(
                        idx.filter_hit(ri, li, h32),
                        "table ({ri}, {li}): {h32:#x} hidden"
                    );
                }
                // False positives, on the tables of the first radius —
                // the ones with the most distinct hash values.
                if ri > 0 {
                    continue;
                }
                let mut keys_per_slot = vec![0u32; g.slots() as usize];
                for &h32 in &members {
                    keys_per_slot[split_hash(h32, g.u_bits).0 as usize] += 1;
                }
                let mean_over_slots = |f: &dyn Fn(f64) -> f64| {
                    keys_per_slot.iter().map(|&n| f(f64::from(n))).sum::<f64>()
                        / keys_per_slot.len() as f64
                };
                let bloom = mean_over_slots(&|n| (1.0 - (-k * n / block_bits).exp()).powf(k));
                let prefix = mean_over_slots(&|n| 1.0 - (-n / block_bits).exp());
                let (mut tried, mut hits) = (0u32, 0u32);
                while tried < 100_000 {
                    let h32 = u64::from(rng.gen::<u32>());
                    if members.contains(&h32) {
                        continue;
                    }
                    tried += 1;
                    hits += u32::from(idx.filter_hit(ri, li, h32));
                }
                let measured = f64::from(hits) / f64::from(tried);
                assert!(
                    measured <= 1.15 * bloom,
                    "table (0, {li}): false-positive rate {measured:.4} vs closed form {bloom:.4}"
                );
                assert!(
                    measured < prefix,
                    "table (0, {li}): {measured:.4} is no better than a prefix bitmap's {prefix:.4}"
                );
            }
        }
        std::fs::remove_file(&path).ok();
    }

    /// An image of the previous format keeps a prefix bitmap where this
    /// build expects Bloom blocks: it is refused by type, before any
    /// filter word is read under the wrong rule.
    #[test]
    fn previous_format_image_is_refused_with_invalid_data() {
        use std::os::unix::fs::FileExt;
        let ds = tiny_dataset(50);
        let params = E2lshParams::derive(ds.len(), 2.0, 4.0, 1.0, ds.max_abs_coord(), 8);
        let path = temp_path("format1.idx");
        build_index(&ds, &params, &BuildConfig::default(), &path).unwrap();
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.write_all_at(b"E2LSHOS1", 0).unwrap();
        drop(file);
        let mut dev = SimStorage::new(DeviceProfile::ESSD, 1, Backing::open(&path).unwrap());
        let err = StorageIndex::open(&mut dev)
            .err()
            .expect("format 1 must not open");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("format version 1"), "{err}");
        let err = crate::update::Updater::open(&path)
            .err()
            .expect("nor for updates");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }
}
