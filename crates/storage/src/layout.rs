//! On-storage data layout (paper Section 5.1–5.2, Figure 9).
//!
//! The index image is a flat byte address space:
//!
//! ```text
//! ┌────────────┬────────────────────┬───────────────────┬───────────────┐
//! │ superblock │ hash tables        │ occupancy filters │ bucket heap   │
//! │ (4 KiB)    │ r·L × 2^u × 8 B    │ r·L × 2^f bits    │ 512-B blocks  │
//! └────────────┴────────────────────┴───────────────────┴───────────────┘
//! ```
//!
//! * Each **hash table** maps the `u`-bit prefix of a 32-bit compound hash
//!   value to the storage address of the first bucket block of its chain
//!   (0 = empty).
//! * Each table's **occupancy filter** is loaded into DRAM at open: a
//!   blocked Bloom filter with one `2^(f−u)`-bit block per slot (see
//!   [`TableGeometry::filter_positions`]), consulted before any I/O.
//! * Each **bucket block** is 512 bytes — the minimum read unit of a
//!   typical NVMe SSD — holding a 16-byte header (8-byte next-block
//!   address, 2-byte entry count, 6 bytes reserved/padding) and up to
//!   99 five-byte *object info* entries.
//! * An **object info** entry packs the object ID (`⌈log2 n⌉` bits) and a
//!   fingerprint (the remaining `v − u` bits of the 32-bit hash value) into
//!   40 bits, so false collisions introduced by indexing only `u` bits can
//!   be rejected without a distance check.

use bytes::{Buf, BufMut};
use e2lsh_core::fxhash::splitmix64;

/// Bucket block size in bytes (minimum NVMe read unit).
pub const BLOCK_SIZE: usize = 512;
/// Bucket block header size: 8-byte next pointer, 2-byte count, 6 reserved.
pub const HEADER_SIZE: usize = 16;
/// Object info entry size in bytes (40 bits).
pub const ENTRY_SIZE: usize = 5;
/// Entries per bucket block: (512 − 16) / 5 = 99 (paper Section 5.1).
pub const ENTRIES_PER_BLOCK: usize = (BLOCK_SIZE - HEADER_SIZE) / ENTRY_SIZE;
/// Hash value width `v` in bits (paper Section 5.2 uses 32).
pub const HASH_BITS: u32 = 32;
/// Superblock reserved size.
pub const SUPERBLOCK_SIZE: usize = 4096;

/// Bit positions a hash value sets and tests in its slot's block of the
/// occupancy filter (the Bloom filter's `k`). A format constant: at the
/// 4–8 filter bits per key [`crate::build::default_filter_bits`] gives,
/// 3 is within 1.5 points of the optimal false-positive rate.
pub const FILTER_HASHES: usize = 3;
// `filter_positions` cuts one 64-bit mix into slices 21 bits apart.
const _: () = assert!(FILTER_HASHES * 21 <= 64);

/// Geometry of the hash-table region: `r·L` tables of `2^u` 8-byte slots,
/// followed by the DRAM-destined occupancy filters (`2^filter_bits` bits
/// per table), followed by the bucket heap.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TableGeometry {
    /// Hash-table index bits `u`.
    pub u_bits: u32,
    /// log2 of one table's occupancy-filter size in bits (≥ `u_bits`,
    /// ≤ 32). The filter is a blocked Bloom filter: slot `s` owns the
    /// `2^(filter_bits − u_bits)` contiguous bits starting at
    /// `s · 2^(filter_bits − u_bits)`, and a hash value sets
    /// [`FILTER_HASHES`] bits inside its slot's block, chosen by its
    /// whole fingerprint ([`TableGeometry::filter_positions`]). A clear
    /// bit at any of them proves that no indexed object has this hash
    /// value, so the probe is skipped without I/O — this is how E2LSHoS
    /// "avoids issuing I/Os for empty buckets" (paper Sec. 4.3) while
    /// keeping only megabytes in DRAM (Table 6's "Index mem"). All bits
    /// set proves nothing: the bucket may still hold no match.
    pub filter_bits: u32,
    /// Number of radii `r`.
    pub num_radii: usize,
    /// Compound hashes per radius `L`.
    pub l: usize,
}

impl TableGeometry {
    /// Slots per table.
    #[inline]
    pub fn slots(&self) -> u64 {
        1u64 << self.u_bits
    }

    /// Bytes per table.
    #[inline]
    pub fn table_bytes(&self) -> u64 {
        self.slots() * 8
    }

    /// Total number of tables (`r·L`).
    #[inline]
    pub fn num_tables(&self) -> usize {
        self.num_radii * self.l
    }

    /// Byte offset of table `(ri, li)` within the image.
    #[inline]
    pub fn table_base(&self, ri: usize, li: usize) -> u64 {
        debug_assert!(ri < self.num_radii && li < self.l);
        SUPERBLOCK_SIZE as u64 + (ri * self.l + li) as u64 * self.table_bytes()
    }

    /// Byte offset of the slot for hash value `h` (only its low `u` bits
    /// are used) in table `(ri, li)`.
    #[inline]
    pub fn slot_addr(&self, ri: usize, li: usize, h: u64) -> u64 {
        self.table_base(ri, li) + (h & (self.slots() - 1)) * 8
    }

    /// Bytes of one table's occupancy filter (`2^filter_bits` bits, in
    /// whole 64-bit words).
    #[inline]
    pub fn filter_bytes_per_table(&self) -> u64 {
        ((1u64 << self.filter_bits) / 8).max(8)
    }

    /// 64-bit words of one table's occupancy filter.
    #[inline]
    pub fn filter_words_per_table(&self) -> usize {
        (self.filter_bytes_per_table() / 8) as usize
    }

    /// The [`FILTER_HASHES`] filter bits of hash value `h32`, as `(word
    /// index, bit mask)` pairs within its table's filter. This is the
    /// only definition of the filter layout: building, querying,
    /// inserting and GC all go through it (or through
    /// [`TableGeometry::filter_slot_words`] for a slot's whole block).
    ///
    /// The low `u` bits of `h32` pick the slot and with it the block;
    /// position `i` inside the block is `c = filter_bits − u_bits` bits
    /// of one 64-bit mix of the fingerprint `h32 >> u`, taken 21 bits
    /// apart (disjoint — hence independent — slices for `c ≤ 21`). With
    /// `c = 0` the block is one bit and all positions coincide on it: a
    /// plain slot-occupancy bit.
    #[inline]
    pub fn filter_positions(&self, h32: u64) -> [(usize, u64); FILTER_HASHES] {
        let c = self.filter_bits - self.u_bits;
        let (slot, fp) = split_hash(h32, self.u_bits);
        let mix = splitmix64(u64::from(fp));
        std::array::from_fn(|i| {
            let within = mix.rotate_right(21 * i as u32) & ((1u64 << c) - 1);
            let bit = (slot << c) | within;
            ((bit / 64) as usize, 1u64 << (bit % 64))
        })
    }

    /// The words holding slot `slot`'s filter block (only the low `u`
    /// bits of `slot` are used, as in [`TableGeometry::slot_addr`]), and
    /// the mask of the block's bits within each of them: all ones when the block spans
    /// whole words (`c ≥ 6`), a sub-word run when several slots share one
    /// word (`c < 6`) — a rewrite of the block must then leave the other
    /// slots' bits as they are.
    #[inline]
    pub fn filter_slot_words(&self, slot: u64) -> (std::ops::Range<usize>, u64) {
        let c = self.filter_bits - self.u_bits;
        let first_bit = (slot & (self.slots() - 1)) << c;
        let first = (first_bit / 64) as usize;
        if c >= 6 {
            (first..first + (1usize << (c - 6)), u64::MAX)
        } else {
            (
                first..first + 1,
                ((1u64 << (1u32 << c)) - 1) << (first_bit % 64),
            )
        }
    }

    /// Byte offset of the filter for table `(ri, li)`.
    #[inline]
    pub fn filter_base(&self, ri: usize, li: usize) -> u64 {
        SUPERBLOCK_SIZE as u64
            + self.num_tables() as u64 * self.table_bytes()
            + (ri * self.l + li) as u64 * self.filter_bytes_per_table()
    }

    /// First byte of the bucket-block heap.
    #[inline]
    pub fn heap_base(&self) -> u64 {
        SUPERBLOCK_SIZE as u64
            + self.num_tables() as u64 * (self.table_bytes() + self.filter_bytes_per_table())
    }
}

/// Split a `v`-bit hash value into its `u`-bit table index and `(v−u)`-bit
/// fingerprint.
#[inline]
pub fn split_hash(h32: u64, u_bits: u32) -> (u64, u32) {
    debug_assert!(u_bits <= HASH_BITS);
    let table_idx = h32 & ((1u64 << u_bits) - 1);
    let fingerprint = (h32 >> u_bits) as u32; // remaining v−u bits
    (table_idx, fingerprint)
}

/// Packing of (object ID, fingerprint) into a 5-byte object info entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EntryCodec {
    /// Bits for the object ID: `⌈log2 n⌉`.
    pub id_bits: u32,
    /// Bits for the fingerprint: `v − u`.
    pub fp_bits: u32,
}

impl EntryCodec {
    /// Codec for a database of `n` objects indexed with `u` table bits.
    ///
    /// # Panics
    /// Panics if the two fields cannot fit in 40 bits (paper Section 5.2:
    /// `⌈log2 n⌉ + v − u` must be ≤ 40).
    pub fn new(n: usize, u_bits: u32) -> Self {
        assert!(n >= 1);
        let id_bits = (usize::BITS - (n - 1).leading_zeros()).max(1);
        let fp_bits = HASH_BITS - u_bits.min(HASH_BITS);
        assert!(
            id_bits + fp_bits <= (ENTRY_SIZE * 8) as u32,
            "object info overflow: id_bits {id_bits} + fp_bits {fp_bits} > 40"
        );
        Self { id_bits, fp_bits }
    }

    /// Pack an entry into its 40-bit representation.
    #[inline]
    pub fn pack(&self, id: u32, fingerprint: u32) -> u64 {
        debug_assert!(u64::from(id) < (1u64 << self.id_bits));
        let fp = u64::from(fingerprint) & ((1u64 << self.fp_bits) - 1);
        (fp << self.id_bits) | u64::from(id)
    }

    /// Unpack a 40-bit entry into (object ID, fingerprint).
    #[inline]
    pub fn unpack(&self, packed: u64) -> (u32, u32) {
        let id = (packed & ((1u64 << self.id_bits) - 1)) as u32;
        let fp = (packed >> self.id_bits) as u32;
        (id, fp)
    }

    /// Fingerprint mask (low `fp_bits` bits set).
    #[inline]
    pub fn fp_mask(&self) -> u32 {
        if self.fp_bits >= 32 {
            u32::MAX
        } else {
            (1u32 << self.fp_bits) - 1
        }
    }
}

/// A decoded bucket block.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BucketBlock {
    /// Storage address of the next block in the chain (0 = end).
    pub next: u64,
    /// Entries: `(object id, fingerprint)`.
    pub entries: Vec<(u32, u32)>,
}

impl BucketBlock {
    /// Encode into exactly [`BLOCK_SIZE`] bytes.
    ///
    /// # Panics
    /// Panics if there are more than [`ENTRIES_PER_BLOCK`] entries.
    pub fn encode(&self, codec: &EntryCodec, out: &mut Vec<u8>) {
        assert!(self.entries.len() <= ENTRIES_PER_BLOCK);
        let start = out.len();
        out.put_u64_le(self.next);
        out.put_u16_le(self.entries.len() as u16);
        out.put_slice(&[0u8; 6]); // reserved (paper: debug padding)
        for &(id, fp) in &self.entries {
            let packed = codec.pack(id, fp);
            out.put_slice(&packed.to_le_bytes()[..ENTRY_SIZE]);
        }
        out.resize(start + BLOCK_SIZE, 0);
    }

    /// Decode from a [`BLOCK_SIZE`]-byte buffer.
    pub fn decode(codec: &EntryCodec, mut buf: &[u8]) -> Self {
        assert!(buf.len() >= BLOCK_SIZE, "short bucket block");
        let next = buf.get_u64_le();
        let count = buf.get_u16_le() as usize;
        buf.advance(6);
        assert!(count <= ENTRIES_PER_BLOCK, "corrupt block: count {count}");
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            let mut raw = [0u8; 8];
            raw[..ENTRY_SIZE].copy_from_slice(&buf[..ENTRY_SIZE]);
            buf.advance(ENTRY_SIZE);
            entries.push(codec.unpack(u64::from_le_bytes(raw)));
        }
        Self { next, entries }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_match_paper() {
        assert_eq!(BLOCK_SIZE, 512);
        assert_eq!(HEADER_SIZE, 16);
        assert_eq!(ENTRY_SIZE, 5);
        assert_eq!(ENTRIES_PER_BLOCK, 99); // (512-16)/5 per Section 5.1
    }

    #[test]
    fn geometry_addressing() {
        let g = TableGeometry {
            u_bits: 10,
            filter_bits: 13,
            num_radii: 3,
            l: 4,
        };
        assert_eq!(g.slots(), 1024);
        assert_eq!(g.table_bytes(), 8192);
        assert_eq!(g.num_tables(), 12);
        assert_eq!(g.filter_bytes_per_table(), 1024);
        assert_eq!(g.filter_words_per_table(), 128);
        assert_eq!(g.table_base(0, 0), SUPERBLOCK_SIZE as u64);
        assert_eq!(g.table_base(0, 1), SUPERBLOCK_SIZE as u64 + 8192);
        assert_eq!(g.table_base(1, 0), SUPERBLOCK_SIZE as u64 + 4 * 8192);
        assert_eq!(g.filter_base(0, 0), SUPERBLOCK_SIZE as u64 + 12 * 8192);
        assert_eq!(
            g.filter_base(0, 1),
            SUPERBLOCK_SIZE as u64 + 12 * 8192 + 1024
        );
        assert_eq!(g.heap_base(), SUPERBLOCK_SIZE as u64 + 12 * (8192 + 1024));
        // Slot address wraps on u bits.
        assert_eq!(g.slot_addr(0, 0, 0), g.table_base(0, 0));
        assert_eq!(g.slot_addr(0, 0, 1024 + 5), g.table_base(0, 0) + 5 * 8);
    }

    fn filter_geometry(u_bits: u32, filter_bits: u32) -> TableGeometry {
        TableGeometry {
            u_bits,
            filter_bits,
            num_radii: 1,
            l: 1,
        }
    }

    #[test]
    fn filter_positions_fall_inside_the_slots_own_block() {
        // c = 7 (the benchmark's geometry), 0, 2, 6, 10 and the widest
        // block a 32-bit hash allows.
        for (u, f) in [(8, 15), (8, 8), (8, 10), (6, 12), (10, 20), (4, 32)] {
            let g = filter_geometry(u, f);
            assert_eq!(g.filter_words_per_table() as u64 * 64, 1u64 << f);
            for t in 0..20_000u64 {
                let h32 = splitmix64(t) & 0xFFFF_FFFF;
                let (slot, _) = split_hash(h32, u);
                let (words, mask) = g.filter_slot_words(slot);
                assert!(words.end <= g.filter_words_per_table());
                for (word, bit) in g.filter_positions(h32) {
                    assert_eq!(bit.count_ones(), 1);
                    assert!(words.contains(&word), "u {u} f {f}: word outside block");
                    assert_eq!(bit & mask, bit, "u {u} f {f}: bit outside block");
                }
            }
        }
    }

    #[test]
    fn filter_block_of_one_bit_is_a_slot_occupancy_bit() {
        // c = 0: every hash value of a slot maps all its positions onto
        // the slot's single bit, whatever the fingerprint.
        let g = filter_geometry(8, 8);
        for slot in 0..256u64 {
            let want = ((slot / 64) as usize, 1u64 << (slot % 64));
            assert_eq!(g.filter_slot_words(slot), (want.0..want.0 + 1, want.1));
            for fp in [0u64, 1, 0xABCDEF, 0xFF_FFFF] {
                assert_eq!(g.filter_positions(slot | (fp << 8)), [want; FILTER_HASHES]);
            }
        }
    }

    #[test]
    fn filter_blocks_sharing_a_word_tile_it() {
        // c < 6: 64 / 2^c slots share each word; their masks are
        // disjoint runs of 2^c bits that together cover the word.
        for c in 0..6u32 {
            let g = filter_geometry(8, 8 + c);
            let per_word = 64u64 >> c;
            for first in (0..256u64).step_by(per_word as usize) {
                let mut cover = 0u64;
                for slot in first..first + per_word {
                    let (words, mask) = g.filter_slot_words(slot);
                    assert_eq!(
                        words,
                        (first / per_word) as usize..(first / per_word) as usize + 1
                    );
                    assert_eq!(mask.count_ones(), 1 << c);
                    assert_eq!(cover & mask, 0, "c {c}: blocks overlap");
                    cover |= mask;
                }
                assert_eq!(cover, u64::MAX, "c {c}: blocks leave a gap");
            }
        }
    }

    #[test]
    fn filter_positions_use_the_whole_fingerprint() {
        // Hash values that agree on their low `filter_bits` bits — one
        // prefix-bitmap bit — are told apart by their high bits.
        let g = filter_geometry(8, 15);
        let base = 0x1234u64; // low 15 bits
        let distinct: std::collections::HashSet<_> = (0..1000u64)
            .map(|hi| g.filter_positions(base | (hi << 15)))
            .collect();
        assert!(distinct.len() > 990, "{} distinct triples", distinct.len());
        // Deterministic: the rule is part of the on-storage format.
        assert_eq!(g.filter_positions(base), g.filter_positions(base));
    }

    #[test]
    fn split_hash_reassembles() {
        let h: u64 = 0xABCD_1234;
        let (idx, fp) = split_hash(h, 12);
        assert_eq!(idx, h & 0xFFF);
        assert_eq!(u64::from(fp), h >> 12);
        assert_eq!((u64::from(fp) << 12) | idx, h);
    }

    #[test]
    fn entry_codec_roundtrip() {
        let codec = EntryCodec::new(1_000_000, 18); // 20 id bits, 14 fp bits
        assert_eq!(codec.id_bits, 20);
        assert_eq!(codec.fp_bits, 14);
        for &(id, fp) in &[(0u32, 0u32), (999_999, 0x3FFF), (12345, 42)] {
            let (id2, fp2) = codec.unpack(codec.pack(id, fp));
            assert_eq!((id, fp), (id2, fp2));
        }
    }

    #[test]
    fn entry_codec_billion_objects_fits() {
        // Paper: one billion objects, u slightly below log2 n = 30.
        let codec = EntryCodec::new(1_000_000_000, 28);
        assert_eq!(codec.id_bits, 30);
        assert_eq!(codec.fp_bits, 4);
        assert!(codec.id_bits + codec.fp_bits <= 40);
    }

    #[test]
    #[should_panic(expected = "object info overflow")]
    fn entry_codec_overflow_detected() {
        // 30 id bits + 20 fp bits > 40.
        let _ = EntryCodec::new(1_000_000_000, 12);
    }

    #[test]
    fn block_roundtrip() {
        let codec = EntryCodec::new(100_000, 15);
        let block = BucketBlock {
            next: 0xDEAD_BE00,
            entries: (0..99).map(|i| (i * 7, i & codec.fp_mask())).collect(),
        };
        let mut buf = Vec::new();
        block.encode(&codec, &mut buf);
        assert_eq!(buf.len(), BLOCK_SIZE);
        let back = BucketBlock::decode(&codec, &buf);
        assert_eq!(back, block);
    }

    #[test]
    fn empty_block_roundtrip() {
        let codec = EntryCodec::new(10, 2);
        let block = BucketBlock {
            next: 0,
            entries: vec![],
        };
        let mut buf = Vec::new();
        block.encode(&codec, &mut buf);
        let back = BucketBlock::decode(&codec, &buf);
        assert_eq!(back.entries.len(), 0);
        assert_eq!(back.next, 0);
    }

    #[test]
    #[should_panic]
    fn overfull_block_panics() {
        let codec = EntryCodec::new(10, 2);
        let block = BucketBlock {
            next: 0,
            entries: vec![(1, 0); 100],
        };
        let mut buf = Vec::new();
        block.encode(&codec, &mut buf);
    }
}
