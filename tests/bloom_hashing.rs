//! Exactness guard for line hashing and the bank-wide Bloom probes.
//!
//! Keys are hashed with slice-by-8 CRCs, once per line, and the one
//! [`LineHash`] is reused for every filter the line is probed against.
//! Both are host shortcuts: every filter bit, membership answer and
//! reported holder must stay what the byte-serial, hash-per-filter
//! implementation gave. This test checks:
//!
//! - slice-by-8 against the byte-serial `checksum` on seeded and edge keys;
//! - an FNV-1a digest of filter indices and of seeded filters' membership
//!   answers against constants recorded from the byte-serial
//!   implementation (commit da21e5d);
//! - every Locking Buffer and NIC bank method against a naive loop that
//!   calls `Signature::contains` / `BloomFilter::contains` per entry with
//!   the raw line, on seeded banks that mix conventional and dual
//!   signatures and hold the caller's own entry; the bank's lock check
//!   takes raw lines and their hashes alike.
//!
//! If a change to the hashing moves the digests on purpose, re-record them
//! and say so; a host-only change must leave them alone.

use hades::bloom::hash::{filter_indices, Crc32, Crc64, LineHash};
use hades::bloom::{BloomFilter, DualWriteFilter, LockFailure, LockingBuffers, Signature};
use hades::net::nic::{Nic, NicConflict, RemoteTxKey};
use hades::sim::config::BloomParams;
use hades::sim::ids::{NodeId, SlotId};
use hades::sim::rng::SimRng;
use hades::sim::time::Cycles;

/// 64-bit FNV-1a, continued from `h`.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// `filter_indices(k, 2, 1024)` then `filter_indices(k, 1, 512)` for keys
/// 0..65,536, recorded at da21e5d.
const INDICES_DIGEST: u64 = 0xb8b4_307f_4133_33c5;
/// Membership answers of seeded conventional and dual filters, recorded at
/// da21e5d.
const CONTAINS_DIGEST: u64 = 0x828d_b666_f651_72dd;

#[test]
fn slice_by_8_equals_the_byte_serial_crc() {
    assert_eq!(Crc32::new().checksum(b"123456789"), 0xCBF4_3926);
    assert_eq!(Crc64::new().checksum(b"123456789"), 0x995D_C9BB_DF19_39FA);
    let mut rng = SimRng::seed_from(0x5EED_C3C8);
    let edges = [0, 1, u64::MAX, 1 << 40];
    let seeded = (0..100_000).map(|_| rng.next_u64());
    for key in edges.into_iter().chain(seeded) {
        let bytes = key.to_le_bytes();
        assert_eq!(Crc32::new().hash_u64(key), Crc32::new().checksum(&bytes));
        assert_eq!(Crc64::new().hash_u64(key), Crc64::new().checksum(&bytes));
    }
}

fn indices_digest() -> u64 {
    let mut h = FNV_OFFSET;
    for key in 0..65_536u64 {
        for i in filter_indices(key, 2, 1024).chain(filter_indices(key, 1, 512)) {
            h = fnv1a(h, &(i as u64).to_le_bytes());
        }
    }
    h
}

fn contains_digest() -> u64 {
    let mut rng = SimRng::seed_from(0xB100_F11E);
    let mut h = FNV_OFFSET;
    for round in 0..32 {
        let mut bf = BloomFilter::new(1024, 2);
        let mut wf = DualWriteFilter::new(512, 4096, 1 + rng.below(20_480) as usize);
        let n = 10 + round * 3;
        for _ in 0..n {
            bf.insert(rng.below(8192));
            wf.insert(rng.below(8192));
        }
        for probe in 0..8192u64 {
            h = fnv1a(
                h,
                &[u8::from(bf.contains(probe)), u8::from(wf.contains(probe))],
            );
        }
    }
    h
}

#[test]
fn filter_bits_and_answers_match_the_byte_serial_digests() {
    assert_eq!(indices_digest(), INDICES_DIGEST, "filter indices moved");
    assert_eq!(
        contains_digest(),
        CONTAINS_DIGEST,
        "membership answers moved"
    );
}

/// A seeded signature over lines in `0..universe`: conventional or dual.
fn signature(rng: &mut SimRng, universe: u64) -> Signature {
    let n = rng.below(40);
    if rng.chance(0.5) {
        let mut bf = BloomFilter::new(1024, 2);
        (0..n).for_each(|_| bf.insert(rng.below(universe)));
        bf.into()
    } else {
        let mut wf = DualWriteFilter::new(512, 4096, 1 + rng.below(4096) as usize);
        (0..n).for_each(|_| wf.insert(rng.below(universe)));
        wf.into()
    }
}

fn lines(rng: &mut SimRng, universe: u64, max: u64) -> Vec<u64> {
    (0..rng.below(max + 1))
        .map(|_| rng.below(universe))
        .collect()
}

/// The first entry, in bank order, that `hit` — the naive reference.
fn first(
    bank: &[(u64, Signature, Signature)],
    hit: impl Fn(&(u64, Signature, Signature)) -> bool,
) -> Option<u64> {
    bank.iter().find(|e| hit(e)).map(|e| e.0)
}

#[test]
fn bank_methods_match_a_naive_per_entry_loop() {
    let universe = 2048;
    let mut rng = SimRng::seed_from(0x10C_B0F5);
    let mut holders_seen = 0;
    for _ in 0..200 {
        let capacity = 1 + rng.below(16) as usize;
        let held = rng.below(capacity as u64 + 1) as usize;
        let mut bufs = LockingBuffers::new(capacity);
        let mut bank: Vec<(u64, Signature, Signature)> = Vec::new();
        for owner in 0..held as u64 {
            let (r, w) = (signature(&mut rng, universe), signature(&mut rng, universe));
            bufs.import_entry(owner * 7, r.clone(), w.clone());
            bank.push((owner * 7, r, w));
        }
        // The caller's own token: a held entry (it masks later holders in
        // `blocks_read`) or an owner with no buffer.
        let own = rng.below(held as u64 + 1) * 7;
        for _ in 0..50 {
            let l = rng.below(universe);
            let read = first(&bank, |e| e.2.contains(l));
            let write = first(&bank, |e| e.1.contains(l) || e.2.contains(l));
            let write_ex = first(&bank, |e| {
                e.0 != own && (e.1.contains(l) || e.2.contains(l))
            });
            assert_eq!(bufs.blocks_read(l), read);
            assert_eq!(bufs.blocks_read(LineHash::new(l)), read);
            assert_eq!(bufs.blocks_write(l), write);
            assert_eq!(bufs.blocks_write_excluding(l, own), write_ex);
            holders_seen += usize::from(read.is_some());
        }
        for _ in 0..10 {
            let wl = lines(&mut rng, universe, 12);
            let rl = lines(&mut rng, universe, 12);
            let conflict = first(&bank, |e| {
                wl.iter().any(|&l| e.1.contains(l) || e.2.contains(l))
                    || rl.iter().any(|&l| e.2.contains(l))
            });
            let expect = match conflict {
                Some(owner) => Err(LockFailure::Conflict(owner)),
                None if held >= capacity => Err(LockFailure::NoFreeBuffer),
                None => Ok(()),
            };
            let (r, w) = (signature(&mut rng, universe), signature(&mut rng, universe));
            // Raw lines and their hashes must get the same answer.
            let hashed = |ls: &[u64]| -> Vec<LineHash> { ls.iter().map(|&l| l.into()).collect() };
            assert_eq!(bufs.denial(&wl, &rl), expect.err());
            assert_eq!(bufs.denial(&hashed(&wl), &hashed(&rl)), expect.err());
            let mut probe = bufs.clone();
            assert_eq!(probe.try_lock(u64::MAX, r, w, &wl, &rl), expect);
        }
    }
    assert!(holders_seen > 100, "banks too sparse to exercise holders");
}

fn key(origin: u16, slot: u16) -> RemoteTxKey {
    RemoteTxKey {
        origin: NodeId(origin),
        slot: SlotId(slot),
    }
}

/// The naive NIC probe: every registered transaction but `exclude`, its
/// filters probed with each raw line, sorted by key.
fn naive_nic(
    nic: &Nic,
    lines: &[u64],
    exclude: Option<RemoteTxKey>,
    writes: bool,
) -> Vec<NicConflict> {
    let mut out = Vec::new();
    for k in nic.remote_tx_keys() {
        if Some(k) == exclude {
            continue;
        }
        let (rd, wr) = nic.filters_for_locking(k);
        let (er, ew) = (nic.exact_reads(k), nic.exact_writes(k));
        let hit = lines
            .iter()
            .any(|&l| (writes && rd.contains(l)) || wr.contains(l));
        if hit {
            let real = lines
                .iter()
                .any(|l| (writes && er.contains(l)) || ew.contains(l));
            out.push(NicConflict {
                with: k,
                false_positive: !real,
            });
        }
    }
    out
}

#[test]
fn nic_probes_match_a_naive_per_transaction_loop() {
    let universe = 2048;
    let mut rng = SimRng::seed_from(0x41C_B0F5);
    let (mut hits, mut false_hits) = (0, 0);
    for _ in 0..100 {
        let mut nic = Nic::new(&BloomParams::default());
        let txs = rng.below(12);
        for t in 0..txs {
            let k = key(rng.below(4) as u16, t as u16);
            let reads = lines(&mut rng, universe, 60);
            let writes = lines(&mut rng, universe, 20);
            nic.record_remote_read(Cycles::ZERO, k, &reads);
            nic.record_remote_write(Cycles::ZERO, k, &writes);
        }
        let keys = nic.remote_tx_keys();
        for _ in 0..20 {
            let probe = lines(&mut rng, universe, 12);
            let exclude = match rng.below(3) {
                0 if !keys.is_empty() => Some(keys[rng.below(keys.len() as u64) as usize]),
                1 => Some(key(9, 9)),
                _ => None,
            };
            let w = naive_nic(&nic, &probe, exclude, true);
            let r = naive_nic(&nic, &probe, exclude, false);
            assert_eq!(nic.probe_writes_against(Cycles::ZERO, &probe, exclude), w);
            assert_eq!(nic.probe_reads_against(Cycles::ZERO, &probe, exclude), r);
            hits += w.len() + r.len();
            false_hits += w.iter().chain(&r).filter(|c| c.false_positive).count();
        }
    }
    assert!(hits > 100, "NIC filters too sparse to exercise hits");
    assert!(false_hits > 0, "no false positive exercised");
}
