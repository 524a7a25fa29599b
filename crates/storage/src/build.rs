//! E2LSHoS index construction (paper Section 5.3).
//!
//! For each radius `R ∈ {1, c, …, c^{r−1}}` and compound hash
//! `l ∈ {1…L}`, every object's 32-bit compound hash value is computed,
//! split into a `u`-bit slot index and a `(32−u)`-bit fingerprint, and the
//! `(id, fingerprint)` entries are packed into chained 512-byte bucket
//! blocks in the heap region. Each table's slot array then receives the
//! storage address of the first block of its chain.
//!
//! The builder writes a single flat index file whose layout is described
//! in [`crate::layout`]; the superblock stores everything needed to reopen
//! the index, including the hash-family seed, so readers regenerate the
//! exact hash functions.

use crate::layout::{
    split_hash, BucketBlock, EntryCodec, TableGeometry, BLOCK_SIZE, ENTRIES_PER_BLOCK, HASH_BITS,
    SUPERBLOCK_SIZE,
};
use e2lsh_core::dataset::Dataset;
use e2lsh_core::lsh::{hash_v_bits, CompoundHash, HashFamily};
use e2lsh_core::params::E2lshParams;
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Seek, SeekFrom, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"E2LSHOS2";

/// The on-storage format version — the digit at the end of the magic,
/// which [`Superblock::decode`] checks. Caches of built images key on it.
/// Version 2 made the occupancy filter a per-slot blocked Bloom filter
/// ([`TableGeometry::filter_positions`]); a version-1 image carries a
/// prefix bitmap in the same region and is refused.
pub const FORMAT_VERSION: u32 = (MAGIC[7] - b'0') as u32;

/// Maximum number of free bucket-block addresses the superblock can
/// persist (see [`Superblock::free`]). Sized so a worst-case superblock
/// (64 radii + full free list) still fits the 4 KiB reserved region:
/// `84 + 64·4 + 4 + 448·8 = 3928 ≤ 4096`. The cap bounds the
/// *standing* pool, not reclamation throughput — under steady churn
/// the list cycles (deletes push, inserts pop), so it must hold the
/// frees of at least one reuse-quarantine window or reclamation
/// throttles and the heap grows without bound.
pub const MAX_FREE_LIST: usize = 448;

/// Build-time options.
#[derive(Clone, Copy, Debug)]
pub struct BuildConfig {
    /// Hash-table index bits `u`; `None` picks the default
    /// `max(8, ⌈log2 n⌉ − 6)` (paper: "slightly smaller than log2 n"),
    /// clamped so the object info still fits in 40 bits.
    pub u_bits: Option<u32>,
    /// log2 of the occupancy filter's bits per table; `None` picks
    /// `min(⌈log2 n⌉ + 1, u + 10, 32)` (2–4 filter bits per unit of ID
    /// capacity, 4–8 per indexed key at the default 2× capacity, so the
    /// majority of probes whose true bucket is empty are skipped without
    /// I/O while the DRAM filters stay in the megabyte range).
    pub filter_bits: Option<u32>,
    /// Object-ID capacity to reserve for online inserts (see
    /// [`crate::update::Updater`]); the entry codec and table geometry are
    /// sized for `max(n, capacity)`. `None` reserves 2× the build-time n.
    pub capacity: Option<usize>,
    /// Seed for the hash family.
    pub seed: u64,
}

impl Default for BuildConfig {
    fn default() -> Self {
        Self {
            u_bits: None,
            filter_bits: None,
            capacity: None,
            seed: 0xE25_005,
        }
    }
}

/// Default occupancy-filter size (log2 bits per table) for `n` objects
/// and table bits `u`.
pub fn default_filter_bits(n: usize, u_bits: u32) -> u32 {
    let id_bits = (usize::BITS - (n.max(2) - 1).leading_zeros()).max(1);
    (id_bits + 1).clamp(u_bits, u_bits + 10).min(HASH_BITS)
}

/// Summary of a finished build (sizes feed the paper's Table 6).
#[derive(Clone, Copy, Debug)]
pub struct BuildReport {
    /// Total index file size in bytes.
    pub total_bytes: u64,
    /// Bytes occupied by hash tables.
    pub table_bytes: u64,
    /// Bytes occupied by bucket blocks.
    pub heap_bytes: u64,
    /// Bucket blocks written.
    pub blocks: u64,
    /// Total object-info entries written (`n·L·r`).
    pub entries: u64,
    /// The `u` that was used.
    pub u_bits: u32,
}

/// Pick the default `u` for a database of `n` objects.
pub fn default_u_bits(n: usize) -> u32 {
    let id_bits = (usize::BITS - (n.max(2) - 1).leading_zeros()).max(1);
    // Dense slots: a few dozen entries per slot on average.
    let u = id_bits.saturating_sub(6).max(8);
    // 40-bit object info constraint: id_bits + (32 − u) ≤ 40.
    u.max(id_bits.saturating_sub(8)).min(HASH_BITS)
}

/// The superblock contents (everything needed to reopen an index).
#[derive(Clone, Debug)]
pub struct Superblock {
    pub n: u64,
    /// Object-ID capacity the codec was sized for (≥ n).
    pub capacity: u64,
    pub dim: u32,
    pub m: u32,
    pub l: u32,
    pub u_bits: u32,
    pub filter_bits: u32,
    pub c: f32,
    pub w: f32,
    pub gamma: f32,
    pub s: u64,
    pub seed: u64,
    pub radii: Vec<f32>,
    pub total_bytes: u64,
    /// Persistent free list: heap addresses of bucket blocks that were
    /// emptied by deletes/compaction and unlinked from their chains.
    /// Inserts draw from this list before growing the heap, bounding
    /// `total_bytes` under churn. At most [`MAX_FREE_LIST`] entries;
    /// encoded after the radii so images written before the free list
    /// existed decode as an empty list (zero padding).
    pub free: Vec<u64>,
}

impl Superblock {
    /// Encode into exactly [`SUPERBLOCK_SIZE`] bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(SUPERBLOCK_SIZE);
        b.extend_from_slice(MAGIC);
        b.extend_from_slice(&self.n.to_le_bytes());
        b.extend_from_slice(&self.capacity.to_le_bytes());
        b.extend_from_slice(&self.dim.to_le_bytes());
        b.extend_from_slice(&self.m.to_le_bytes());
        b.extend_from_slice(&self.l.to_le_bytes());
        b.extend_from_slice(&self.u_bits.to_le_bytes());
        b.extend_from_slice(&self.filter_bits.to_le_bytes());
        b.extend_from_slice(&self.c.to_le_bytes());
        b.extend_from_slice(&self.w.to_le_bytes());
        b.extend_from_slice(&self.gamma.to_le_bytes());
        b.extend_from_slice(&self.s.to_le_bytes());
        b.extend_from_slice(&self.seed.to_le_bytes());
        b.extend_from_slice(&self.total_bytes.to_le_bytes());
        b.extend_from_slice(&(self.radii.len() as u32).to_le_bytes());
        for r in &self.radii {
            b.extend_from_slice(&r.to_le_bytes());
        }
        assert!(self.free.len() <= MAX_FREE_LIST, "free list overflow");
        b.extend_from_slice(&(self.free.len() as u32).to_le_bytes());
        for a in &self.free {
            b.extend_from_slice(&a.to_le_bytes());
        }
        assert!(b.len() <= SUPERBLOCK_SIZE, "superblock overflow");
        b.resize(SUPERBLOCK_SIZE, 0);
        b
    }

    /// Decode from a [`SUPERBLOCK_SIZE`]-byte buffer.
    pub fn decode(buf: &[u8]) -> io::Result<Self> {
        if buf.len() < SUPERBLOCK_SIZE || buf[..7] != MAGIC[..7] {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "not an E2LSHoS index (bad magic)",
            ));
        }
        if buf[7] != MAGIC[7] {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "index format version {} is not the version {FORMAT_VERSION} this build \
                     reads: rebuild the index",
                    char::from(buf[7])
                ),
            ));
        }
        let mut off = 8usize;
        let mut take = |n: usize| {
            let s = &buf[off..off + n];
            off += n;
            s
        };
        let n = u64::from_le_bytes(take(8).try_into().unwrap());
        let capacity = u64::from_le_bytes(take(8).try_into().unwrap());
        let dim = u32::from_le_bytes(take(4).try_into().unwrap());
        let m = u32::from_le_bytes(take(4).try_into().unwrap());
        let l = u32::from_le_bytes(take(4).try_into().unwrap());
        let u_bits = u32::from_le_bytes(take(4).try_into().unwrap());
        let filter_bits = u32::from_le_bytes(take(4).try_into().unwrap());
        if u_bits > filter_bits || filter_bits > HASH_BITS {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "corrupt superblock: filter narrower than the table or wider than the hash",
            ));
        }
        let c = f32::from_le_bytes(take(4).try_into().unwrap());
        let w = f32::from_le_bytes(take(4).try_into().unwrap());
        let gamma = f32::from_le_bytes(take(4).try_into().unwrap());
        let s = u64::from_le_bytes(take(8).try_into().unwrap());
        let seed = u64::from_le_bytes(take(8).try_into().unwrap());
        let total_bytes = u64::from_le_bytes(take(8).try_into().unwrap());
        let nr = u32::from_le_bytes(take(4).try_into().unwrap()) as usize;
        if nr > 64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "corrupt superblock: too many radii",
            ));
        }
        let mut radii = Vec::with_capacity(nr);
        for _ in 0..nr {
            radii.push(f32::from_le_bytes(take(4).try_into().unwrap()));
        }
        let nf = u32::from_le_bytes(take(4).try_into().unwrap()) as usize;
        if nf > MAX_FREE_LIST {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "corrupt superblock: free list too long",
            ));
        }
        let mut free = Vec::with_capacity(nf);
        for _ in 0..nf {
            free.push(u64::from_le_bytes(take(8).try_into().unwrap()));
        }
        Ok(Self {
            n,
            capacity,
            dim,
            m,
            l,
            u_bits,
            filter_bits,
            c,
            w,
            gamma,
            s,
            seed,
            radii,
            total_bytes,
            free,
        })
    }
}

/// Build an E2LSHoS index file for `dataset` at `path`.
///
/// Returns the [`BuildReport`] with the achieved sizes.
pub fn build_index<P: AsRef<Path>>(
    dataset: &Dataset,
    params: &E2lshParams,
    config: &BuildConfig,
    path: P,
) -> io::Result<BuildReport> {
    build_index_hashing(dataset, params, config, path, CompoundHash::hash64)
}

/// [`build_index`] with the bucket-key function spelled out, so a test can
/// build the same image through the portable reference kernels.
fn build_index_hashing<P: AsRef<Path>>(
    dataset: &Dataset,
    params: &E2lshParams,
    config: &BuildConfig,
    path: P,
    hash64: impl Fn(&CompoundHash, &[f32], f32, &mut Vec<i32>) -> u64,
) -> io::Result<BuildReport> {
    let n = dataset.len();
    assert!(n >= 1, "cannot index an empty dataset");
    assert_eq!(params.n, n, "params derived for a different n");
    let capacity = config.capacity.unwrap_or(2 * n).max(n);
    let u_bits = config.u_bits.unwrap_or_else(|| default_u_bits(capacity));
    let filter_bits = config
        .filter_bits
        .unwrap_or_else(|| default_filter_bits(capacity, u_bits));
    assert!(filter_bits >= u_bits && filter_bits <= HASH_BITS);
    let codec = EntryCodec::new(capacity, u_bits);
    let geometry = TableGeometry {
        u_bits,
        filter_bits,
        num_radii: params.num_radii(),
        l: params.l,
    };
    let family = HashFamily::generate(
        dataset.dim(),
        params.m,
        params.w,
        params.l,
        &params.radii,
        config.seed,
    );

    let file = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(true)
        .open(path.as_ref())?;
    // Heap blocks are appended sequentially from heap_base; tables are
    // written in place as each (ri, li) pass finishes.
    let mut writer = BufWriter::with_capacity(1 << 20, file);
    writer.seek(SeekFrom::Start(geometry.heap_base()))?;

    let mut next_block_addr = geometry.heap_base();
    let mut blocks_written = 0u64;
    let mut entries_written = 0u64;
    let slots = geometry.slots() as usize;
    let mut scratch: Vec<i32> = Vec::new();
    // Reused per-table buffers.
    let mut keyed: Vec<(u64, u32, u32)> = Vec::with_capacity(n); // (slot, fp, id)
    let mut table: Vec<u64> = vec![0; slots];
    let mut filter: Vec<u64> = vec![0; geometry.filter_words_per_table()];
    let mut block_buf: Vec<u8> = Vec::with_capacity(BLOCK_SIZE);
    let mut table_writes: Vec<(u64, Vec<u8>)> = Vec::new();

    for ri in 0..params.num_radii() {
        let radius = params.radii[ri];
        for li in 0..params.l {
            let compound = family.compound(ri, li);
            keyed.clear();
            filter.iter_mut().for_each(|w| *w = 0);
            for oid in 0..n {
                let key64 = hash64(compound, dataset.point(oid), radius, &mut scratch);
                let h32 = hash_v_bits(key64, HASH_BITS);
                for (word, bit) in geometry.filter_positions(h32) {
                    filter[word] |= bit;
                }
                let (slot, fp) = split_hash(h32, u_bits);
                keyed.push((slot, fp, oid as u32));
            }
            keyed.sort_unstable_by_key(|&(slot, _, _)| slot);
            table.iter_mut().for_each(|s| *s = 0);

            let mut i = 0usize;
            while i < keyed.len() {
                let slot = keyed[i].0;
                let mut j = i;
                while j < keyed.len() && keyed[j].0 == slot {
                    j += 1;
                }
                let group = &keyed[i..j];
                let nblocks = group.len().div_ceil(ENTRIES_PER_BLOCK);
                // Chain blocks are consecutive, so every next pointer is
                // known up front.
                let first_addr = next_block_addr;
                for (bi, chunk) in group.chunks(ENTRIES_PER_BLOCK).enumerate() {
                    let next = if bi + 1 < nblocks {
                        next_block_addr + BLOCK_SIZE as u64
                    } else {
                        0
                    };
                    let block = BucketBlock {
                        next,
                        entries: chunk.iter().map(|&(_, fp, id)| (id, fp)).collect(),
                    };
                    block_buf.clear();
                    block.encode(&codec, &mut block_buf);
                    writer.write_all(&block_buf)?;
                    next_block_addr += BLOCK_SIZE as u64;
                    blocks_written += 1;
                    entries_written += chunk.len() as u64;
                }
                table[(slot as usize) & (slots - 1)] = first_addr;
                i = j;
            }

            // Stash table and filter bytes; written after the heap stream
            // ends so the BufWriter never seeks backwards mid-stream.
            let mut tbytes = Vec::with_capacity(slots * 8);
            for &addr in &table {
                tbytes.extend_from_slice(&addr.to_le_bytes());
            }
            table_writes.push((geometry.table_base(ri, li), tbytes));
            let mut fbytes = Vec::with_capacity(filter.len() * 8);
            for &w in &filter {
                fbytes.extend_from_slice(&w.to_le_bytes());
            }
            table_writes.push((geometry.filter_base(ri, li), fbytes));
        }
    }

    writer.flush()?;
    let file: File = writer.into_inner().map_err(|e| e.into_error())?;
    write_all_at(&file, &mut table_writes)?;

    let total_bytes = next_block_addr;
    let sb = Superblock {
        n: n as u64,
        capacity: capacity as u64,
        dim: dataset.dim() as u32,
        m: params.m as u32,
        l: params.l as u32,
        u_bits,
        filter_bits,
        c: params.c,
        w: params.w,
        gamma: params.gamma,
        s: params.s as u64,
        seed: config.seed,
        radii: params.radii.clone(),
        total_bytes,
        free: Vec::new(),
    };
    let sb_bytes = sb.encode();
    write_at(&file, 0, &sb_bytes)?;
    file.sync_all()?;

    Ok(BuildReport {
        total_bytes,
        table_bytes: geometry.num_tables() as u64 * geometry.table_bytes(),
        heap_bytes: total_bytes - geometry.heap_base(),
        blocks: blocks_written,
        entries: entries_written,
        u_bits,
    })
}

fn write_all_at(file: &File, writes: &mut Vec<(u64, Vec<u8>)>) -> io::Result<()> {
    for (addr, bytes) in writes.drain(..) {
        write_at(file, addr, &bytes)?;
    }
    Ok(())
}

#[cfg(unix)]
fn write_at(file: &File, addr: u64, bytes: &[u8]) -> io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.write_all_at(bytes, addr)
}

#[cfg(not(unix))]
fn write_at(_file: &File, _addr: u64, _bytes: &[u8]) -> io::Result<()> {
    unimplemented!("index building requires unix")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::temp_path;

    #[test]
    fn superblock_roundtrip() {
        let sb = Superblock {
            n: 12345,
            capacity: 24690,
            dim: 64,
            m: 10,
            l: 20,
            u_bits: 12,
            filter_bits: 15,
            c: 2.0,
            w: 4.0,
            gamma: 1.2,
            s: 40,
            seed: 777,
            radii: vec![1.0, 2.0, 4.0, 8.0],
            total_bytes: 99999,
            free: vec![4096, 8192, 123 * 512],
        };
        let enc = sb.encode();
        assert_eq!(enc.len(), SUPERBLOCK_SIZE);
        let dec = Superblock::decode(&enc).unwrap();
        assert_eq!(dec.n, 12345);
        assert_eq!(dec.radii, sb.radii);
        assert_eq!(dec.seed, 777);
        assert_eq!(dec.total_bytes, 99999);
        assert_eq!(dec.filter_bits, 15);
        assert_eq!(dec.capacity, 24690);
        assert_eq!(dec.free, sb.free);
    }

    #[test]
    fn superblock_without_free_list_decodes_empty() {
        // Images written before the free list existed end at the radii;
        // the reserved-region zero padding must decode as an empty list.
        let sb = Superblock {
            n: 10,
            capacity: 20,
            dim: 4,
            m: 2,
            l: 3,
            u_bits: 8,
            filter_bits: 10,
            c: 2.0,
            w: 4.0,
            gamma: 1.0,
            s: 5,
            seed: 1,
            radii: vec![1.0],
            total_bytes: 4096,
            free: Vec::new(),
        };
        let mut enc = sb.encode();
        // Truncate to the radii and re-pad with zeros, simulating an old
        // image that never wrote free-list fields.
        let radii_end = 84 + 4 * sb.radii.len();
        enc[radii_end..].iter_mut().for_each(|b| *b = 0);
        let dec = Superblock::decode(&enc).unwrap();
        assert!(dec.free.is_empty());
        assert_eq!(dec.n, 10);
    }

    #[test]
    fn superblock_full_free_list_fits() {
        let sb = Superblock {
            n: 1,
            capacity: 2,
            dim: 4,
            m: 2,
            l: 3,
            u_bits: 8,
            filter_bits: 10,
            c: 2.0,
            w: 4.0,
            gamma: 1.0,
            s: 5,
            seed: 1,
            radii: vec![1.0; 64],
            total_bytes: 4096,
            free: (0..MAX_FREE_LIST as u64).map(|i| 4096 + i * 512).collect(),
        };
        let enc = sb.encode();
        assert_eq!(enc.len(), SUPERBLOCK_SIZE);
        let dec = Superblock::decode(&enc).unwrap();
        assert_eq!(dec.free.len(), MAX_FREE_LIST);
        assert_eq!(dec.free, sb.free);
    }

    #[test]
    fn bad_magic_rejected() {
        let buf = vec![0u8; SUPERBLOCK_SIZE];
        assert!(Superblock::decode(&buf).is_err());
    }

    #[test]
    fn filter_geometry_outside_the_hash_is_rejected() {
        // `filter_bits − u_bits` sizes every slot's filter block: a
        // corrupt pair must fail typed at decode, not underflow later.
        let mut sb = Superblock {
            n: 10,
            capacity: 20,
            dim: 4,
            m: 2,
            l: 3,
            u_bits: 12,
            filter_bits: 11,
            c: 2.0,
            w: 4.0,
            gamma: 1.0,
            s: 5,
            seed: 1,
            radii: vec![1.0],
            total_bytes: 4096,
            free: Vec::new(),
        };
        let err = Superblock::decode(&sb.encode()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        (sb.u_bits, sb.filter_bits) = (8, 33);
        let err = Superblock::decode(&sb.encode()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        (sb.u_bits, sb.filter_bits) = (8, 8);
        assert!(Superblock::decode(&sb.encode()).is_ok());
    }

    #[test]
    fn default_u_bits_sane() {
        assert_eq!(default_u_bits(50_000), 10); // ceil(log2)=16, −6
        assert_eq!(default_u_bits(1_000_000), 14);
        // One billion: id_bits 30 forces u ≥ 22; default is 24.
        let u = default_u_bits(1_000_000_000);
        assert_eq!(u, 24);
        // Tiny n clamps to 8.
        assert_eq!(default_u_bits(100), 8);
        // The codec constraint holds at the default for a wide n range.
        for n in [100usize, 10_000, 1_000_000, 1_000_000_000] {
            let _ = EntryCodec::new(n, default_u_bits(n));
        }
    }

    #[test]
    fn build_writes_consistent_image() {
        use e2lsh_core::dataset::Dataset;
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        let rows: Vec<Vec<f32>> = (0..500)
            .map(|_| (0..8).map(|_| rng.gen::<f32>() * 10.0).collect())
            .collect();
        let ds = Dataset::from_rows(&rows);
        let params = E2lshParams::derive(ds.len(), 2.0, 4.0, 1.0, ds.max_abs_coord(), 8);
        let path = temp_path("build_consistent.idx");
        let report = build_index(&ds, &params, &BuildConfig::default(), &path).unwrap();
        // Every object appears once per table.
        assert_eq!(report.entries, (500 * params.l * params.num_radii()) as u64);
        assert!(report.total_bytes > 0);
        assert_eq!(report.heap_bytes, report.blocks * BLOCK_SIZE as u64);
        let len = std::fs::metadata(&path).unwrap().len();
        assert_eq!(len, report.total_bytes);
        std::fs::remove_file(&path).ok();
    }

    /// Whatever kernel this host dispatches to writes the image the
    /// portable reference writes — why an image is valid on every host and
    /// `KERNEL_REVISION` need not follow the CPU.
    #[test]
    fn dispatched_and_portable_kernels_build_the_same_image() {
        use e2lsh_core::dataset::Dataset;
        use e2lsh_core::kernel::portable;
        use e2lsh_core::lsh::mix_hash_values;
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(6);
        // 100 dimensions: six whole 16-lane chunks and a tail.
        let rows: Vec<Vec<f32>> = (0..400)
            .map(|_| (0..100).map(|_| rng.gen::<f32>() * 255.0).collect())
            .collect();
        let ds = Dataset::from_rows(&rows);
        let params = E2lshParams::derive(ds.len(), 2.0, 4.0, 1.0, ds.max_abs_coord(), 100);
        let config = BuildConfig::default();
        let (dispatched, reference) = (temp_path("kernel_any.idx"), temp_path("kernel_ref.idx"));
        build_index(&ds, &params, &config, &dispatched).unwrap();
        build_index_hashing(
            &ds,
            &params,
            &config,
            &reference,
            |compound, point, radius, scratch| {
                scratch.resize(compound.m(), 0);
                portable::project(&compound.projection(), point, 1.0 / radius, scratch, None);
                mix_hash_values(scratch)
            },
        )
        .unwrap();
        let (a, b) = (
            std::fs::read(&dispatched).unwrap(),
            std::fs::read(&reference).unwrap(),
        );
        assert!(a == b, "images differ");
        std::fs::remove_file(&dispatched).ok();
        std::fs::remove_file(&reference).ok();
    }
}
