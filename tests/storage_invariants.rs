//! Invariants of the storage layer, through its public API: the
//! database's placement, line geometry, value arena, key sampling, table
//! and record ids and commit history, the batched load of every workload
//! against a per-row reference, and the structural properties of
//! each of the four stores (depth, ordering, splits, determinism). The
//! behaviour all four stores share is in `index_conformance.rs`; the
//! record layout and the zero-value store are in `record_layout.rs`.

mod db {
    use hades::sim::ids::NodeId;
    use hades::sim::rng::SimRng;
    use hades::storage::db::{home_of_line, uniform_home, CommitHistoryEntry, Database, TableId};
    use hades::storage::index::IndexKind;

    #[test]
    fn uniform_home_is_balanced() {
        let nodes = 5;
        let mut counts = vec![0u32; nodes];
        for key in 0..50_000u64 {
            counts[uniform_home(key, nodes).0 as usize] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "partition skewed: {c}");
        }
    }

    #[test]
    fn line_slabs_are_disjoint_per_node() {
        let mut db = Database::new(3);
        let t = db.create_table("t", IndexKind::HashTable);
        for key in 0..300u64 {
            db.insert(t, key, &[0u8; 128]);
        }
        for key in 0..300u64 {
            let rid = db.lookup(t, key).unwrap().rid;
            let r = db.record(rid);
            for line in r.lines() {
                assert_eq!(home_of_line(line), r.home(), "line in wrong slab");
            }
        }
    }

    #[test]
    fn explicit_placement_respected() {
        let mut db = Database::new(4);
        let t = db.create_table("w", IndexKind::BTree);
        let rid = db.insert_at(t, 7, &[1u8; 64], NodeId(3));
        assert_eq!(db.record(rid).home(), NodeId(3));
        assert_eq!(db.keys_at(t, NodeId(3)), &[7]);
        assert!(db.keys_at(t, NodeId(0)).is_empty());
    }

    #[test]
    fn locality_sampling() {
        let mut db = Database::new(2);
        let t = db.create_table("t", IndexKind::Map);
        db.insert_at(t, 1, &[0u8; 64], NodeId(0));
        db.insert_at(t, 2, &[0u8; 64], NodeId(1));
        db.insert_at(t, 3, &[0u8; 64], NodeId(1));
        let mut rng = SimRng::seed_from(1);
        for _ in 0..20 {
            assert_eq!(db.random_key_at(t, NodeId(0), &mut rng), Some(1));
            let k = db.random_key_not_at(t, NodeId(0), &mut rng).unwrap();
            assert!(k == 2 || k == 3);
            let k = db.random_key_not_at(t, NodeId(1), &mut rng).unwrap();
            assert_eq!(k, 1);
        }
    }

    /// Loads three tables of `kind` over four nodes, mixing default and
    /// explicit homes, and returns each table with the keys it put on
    /// each node, in insertion order.
    fn mixed_load(db: &mut Database, kind: IndexKind) -> Vec<(TableId, Vec<Vec<u64>>)> {
        let nodes = db.nodes();
        let mut tables: Vec<(TableId, Vec<Vec<u64>>)> = (0..3)
            .map(|t| {
                (
                    db.create_table(&format!("t{t}"), kind),
                    vec![Vec::new(); nodes],
                )
            })
            .collect();
        let mut state = 0x9E37_79B9_u64;
        for i in 1..=3_000u64 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            let (table, expect) = &mut tables[(state >> 33) as usize % 3];
            // Distinct, non-zero and scattered, so no store sees them in
            // key order.
            let key = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let rid = if i % 3 == 0 {
                let home = NodeId((state >> 50) as u16 % nodes as u16);
                db.insert_at(*table, key, &[0u8; 64], home)
            } else {
                db.insert(*table, key, &[0u8; 64])
            };
            expect[db.record(rid).home().0 as usize].push(key);
        }
        tables
    }

    #[test]
    fn per_home_key_lists_match_insertion_order_on_every_store() {
        for kind in [
            IndexKind::HashTable,
            IndexKind::Map,
            IndexKind::BTree,
            IndexKind::BPlusTree,
        ] {
            let mut db = Database::new(4);
            for (table, expect) in mixed_load(&mut db, kind) {
                for (node, keys) in expect.iter().enumerate() {
                    let got = db.keys_at(table, NodeId(node as u16));
                    assert_eq!(got, &keys[..], "{kind:?} {table:?} node {node}");
                }
            }
        }
    }

    #[test]
    fn a_key_inserted_after_sampling_joins_the_end_of_its_homes_list() {
        for kind in [
            IndexKind::HashTable,
            IndexKind::Map,
            IndexKind::BTree,
            IndexKind::BPlusTree,
        ] {
            let mut db = Database::new(4);
            let tables = mixed_load(&mut db, kind);
            let (table, mut expect) = tables[1].clone();
            let mut rng = SimRng::seed_from(3);
            assert!(db.random_key_at(table, NodeId(2), &mut rng).is_some());
            // A key below every other, so an ordered store sees it first.
            db.insert_at(table, 0, &[0u8; 64], NodeId(2));
            db.insert(table, u64::MAX, &[0u8; 64]);
            expect[2].push(0);
            expect[uniform_home(u64::MAX, 4).0 as usize].push(u64::MAX);
            for (node, keys) in expect.iter().enumerate() {
                let got = db.keys_at(table, NodeId(node as u16));
                assert_eq!(got, &keys[..], "{kind:?} node {node}");
            }
            // The other tables' lists are untouched.
            for (table, expect) in [&tables[0], &tables[2]] {
                for (node, keys) in expect.iter().enumerate() {
                    assert_eq!(db.keys_at(*table, NodeId(node as u16)), &keys[..]);
                }
            }
        }
    }

    #[test]
    fn empty_node_sampling_returns_none() {
        let mut db = Database::new(2);
        let t = db.create_table("t", IndexKind::HashTable);
        let mut rng = SimRng::seed_from(2);
        assert_eq!(db.random_key_at(t, NodeId(0), &mut rng), None);
        assert_eq!(db.random_key_not_at(t, NodeId(0), &mut rng), None);
    }

    #[test]
    fn multiple_tables_are_independent() {
        let mut db = Database::new(2);
        let a = db.create_table("a", IndexKind::HashTable);
        let b = db.create_table("b", IndexKind::BPlusTree);
        db.insert(a, 1, &[0u8; 64]);
        db.insert(b, 1, &[0u8; 192]);
        assert_eq!(db.table_len(a), 1);
        assert_eq!(db.table_len(b), 1);
        assert_eq!(db.record_count(), 2);
        let ra = db.record(db.lookup(a, 1).unwrap().rid);
        let rb = db.record(db.lookup(b, 1).unwrap().rid);
        assert_eq!(ra.num_lines(), 1);
        assert_eq!(rb.num_lines(), 3);
        assert_eq!(db.table_name(b), "b");
    }

    #[test]
    #[should_panic(expected = "duplicate key")]
    fn duplicate_keys_rejected() {
        let mut db = Database::new(1);
        let t = db.create_table("t", IndexKind::HashTable);
        db.insert(t, 1, &[0u8; 64]);
        db.insert(t, 1, &[0u8; 64]);
    }

    #[test]
    fn record_mutation_via_db() {
        let mut db = Database::new(1);
        let t = db.create_table("t", IndexKind::HashTable);
        let rid = db.insert(t, 9, &[0u8; 64]);
        db.record_mut(rid).write_u64(0, 777);
        assert_eq!(db.record(rid).read_u64(0), 777);
    }

    #[test]
    fn record_bytes_round_trip_through_the_arena() {
        let mut db = Database::new(2);
        let t = db.create_table("t", IndexKind::HashTable);
        let value: Vec<u8> = (0..130u8).collect();
        let rid = db.insert_at(t, 1, &value, NodeId(1));
        assert_eq!(
            db.record(rid).read(0, 130),
            &value[..],
            "insert stores the value"
        );
        let mut rec = db.record_mut(rid);
        rec.write(64, &[9, 9, 9]);
        rec.write_u64(120, 0x0102_0304_0506_0708);
        assert_eq!(rec.add_u64(120, 1), 0x0102_0304_0506_0709);
        rec.fill(0, 4, 0xEE);
        let rec = db.record(rid);
        assert_eq!(rec.read(0, 6), &[0xEE, 0xEE, 0xEE, 0xEE, 4, 5]);
        assert_eq!(rec.read(63, 5), &[63, 9, 9, 9, 67]);
        assert_eq!(rec.read_u64(120), 0x0102_0304_0506_0709);
        assert_eq!(rec.value_len(), 130);
        assert_eq!(rec.num_lines(), 3);
    }

    #[test]
    fn writing_a_records_last_byte_leaves_its_neighbours_alone() {
        let mut db = Database::new(2);
        let t = db.create_table("t", IndexKind::HashTable);
        let a = db.insert_at(t, 1, &[1u8; 100], NodeId(0));
        let b = db.insert_at(t, 2, &[2u8; 64], NodeId(0));
        let other = db.insert_at(t, 3, &[3u8; 100], NodeId(1));
        // `b` is `a`'s neighbour in node 0's slab, after `a`'s padding.
        let a_end = db.record(a).lines().last().unwrap();
        assert_eq!(db.record(b).lines().next(), Some(a_end + 1));
        db.record_mut(a).write(99, &[0xFF]);
        db.record_mut(b).write(63, &[0xFE]);
        assert_eq!(db.record(a).read(98, 2), &[1, 0xFF]);
        assert_eq!(db.record(b).read(0, 63), &[2u8; 63]);
        assert_eq!(db.record(b).read(63, 1), &[0xFE]);
        assert_eq!(db.record(other).read(0, 100), &[3u8; 100]);
    }

    #[test]
    fn a_100_byte_value_keeps_its_line_geometry() {
        let mut db = Database::new(1);
        let t = db.create_table("t", IndexKind::HashTable);
        let first = db.insert(t, 1, &[0u8; 64]);
        let rid = db.insert(t, 2, &[0u8; 100]);
        let base = db.record(first).lines().next().unwrap() + 1;
        let r = db.record(rid);
        assert_eq!(r.lines().collect::<Vec<_>>(), vec![base, base + 1]);
        assert_eq!(r.lines_for_range(0, 100), vec![base, base + 1]);
        assert_eq!(r.lines_for_range(60, 8), vec![base, base + 1]);
        assert_eq!(r.lines_for_range(64, 36), vec![base + 1]);
        // The short tail line counts as fully written by a write to the end.
        assert_eq!(r.split_write_lines(0, 100), (vec![], vec![base, base + 1]));
        assert_eq!(r.split_write_lines(64, 36), (vec![], vec![base + 1]));
        assert_eq!(r.split_write_lines(8, 8), (vec![base], vec![]));
        assert_eq!(r.split_write_lines(32, 40), (vec![base, base + 1], vec![]));
        // The next record starts after the padding, at the next line.
        let next = db.insert(t, 3, &[0u8; 64]);
        assert_eq!(db.record(next).lines().next(), Some(base + 2));
    }

    #[test]
    fn commit_history_off_by_default_and_versions_when_on() {
        let mut db = Database::new(1);
        let t = db.create_table("t", IndexKind::HashTable);
        let a = db.insert(t, 1, &[0u8; 64]);
        let b = db.insert(t, 2, &[0u8; 64]);
        // Disabled: recording is a no-op.
        assert_eq!(db.note_commit(a, 10), 0);
        assert!(db.commit_history().is_empty());
        assert_eq!(db.commit_seq_of(a), 0);
        db.enable_commit_history();
        assert!(db.commit_history_enabled());
        assert_eq!(db.note_commit(a, 10), 1);
        assert_eq!(db.note_commit(b, 5), 1);
        assert_eq!(db.note_commit(a, 17), 2);
        assert_eq!(db.commit_seq_of(a), 2);
        assert_eq!(db.commit_seq_of(b), 1);
        let h = db.commit_history();
        assert_eq!(h.len(), 3);
        assert_eq!(
            h[2],
            CommitHistoryEntry {
                rid: a,
                seq: 2,
                value_after: 17
            }
        );
    }

    #[test]
    #[should_panic(expected = "under 2^16 tables")]
    fn a_65_537th_table_is_refused() {
        // It would otherwise get `TableId(0)`, and every call on it would
        // read and write the first table.
        let mut db = Database::new(1);
        let mut last = None;
        for _ in 0..=u16::MAX {
            last = Some(db.create_table("t", IndexKind::HashTable));
        }
        assert_eq!(last, Some(TableId(u16::MAX)));
        db.create_table("t", IndexKind::HashTable);
    }
}

mod bulk_load {
    //! Every workload loads through `Database::insert_rows`, which
    //! allocates records a chunk at a time and hands each index its
    //! chunk's entries in one `insert_batch`. The reference below is the
    //! per-row load those set-ups replaced: one `Database::insert` per
    //! row, and each row's index entry, separately, through one
    //! `KvIndex::insert` on a fresh store of the table's shape. Each
    //! workload is loaded at a scale of several chunks and must give the
    //! same records (rids, homes, base lines, value lines, bytes) and the
    //! same per-table `for_each` sequences, which are the stores' slot
    //! and node layouts.

    use hades::storage::db::{Database, TableId};
    use hades::storage::index::{new_index, IndexKind, KvIndex};
    use hades::storage::record::RecordId;
    use hades::workloads::smallbank::{Smallbank, SmallbankConfig, INITIAL_BALANCE};
    use hades::workloads::tatp::{Tatp, TatpConfig};
    use hades::workloads::tpcc::{Tpcc, TpccConfig};
    use hades::workloads::ycsb::{Ycsb, YcsbConfig, YcsbVariant};

    const NODES: usize = 5;

    /// The per-row load.
    struct Reference {
        db: Database,
        stores: Vec<Box<dyn KvIndex + Send>>,
    }

    impl Reference {
        fn new() -> Self {
            Reference {
                db: Database::new(NODES),
                stores: Vec::new(),
            }
        }

        fn table(&mut self, name: &str, kind: IndexKind) -> TableId {
            self.stores.push(new_index(kind));
            self.db.create_table(name, kind)
        }

        fn insert(&mut self, table: TableId, key: u64, value: &[u8]) {
            let rid = self.db.insert(table, key, value);
            let prev = self.stores[table.0 as usize].insert(key, rid);
            assert!(prev.is_none(), "reference: duplicate key {key}");
        }
    }

    /// A store's `(key, rid)` pairs in its own order.
    fn pairs(idx: &dyn KvIndex) -> Vec<(u64, RecordId)> {
        let mut out = Vec::new();
        idx.for_each(&mut |key, rid| out.push((key, rid)));
        out
    }

    fn assert_same_load(name: &str, loaded: &Database, reference: &Reference) {
        let want = &reference.db;
        assert_eq!(loaded.record_count(), want.record_count(), "{name}");
        for rid in (0..want.record_count() as u32).map(RecordId) {
            let (got, exp) = (loaded.record(rid), want.record(rid));
            assert_eq!(got.home(), exp.home(), "{name} rid {rid:?}");
            assert!(got.lines().eq(exp.lines()), "{name} rid {rid:?}: base line");
            assert_eq!(
                got.read(0, got.value_len()),
                exp.read(0, exp.value_len()),
                "{name} rid {rid:?}: value"
            );
            // The value line is crate-private; the record's `Debug`
            // prints every field, so equal text means an equal line.
            assert_eq!(
                format!("{:?}", *got),
                format!("{:?}", *exp),
                "{name} rid {rid:?}"
            );
        }
        for (t, store) in reference.stores.iter().enumerate() {
            let table = TableId(t as u16);
            assert_eq!(loaded.table_name(table), want.table_name(table), "{name}");
            assert_eq!(loaded.table_index(table).kind(), store.kind(), "{name}");
            let got = pairs(loaded.table_index(table));
            assert_eq!(
                got,
                pairs(store.as_ref()),
                "{name} {}",
                want.table_name(table)
            );
            assert_eq!(
                got,
                pairs(want.table_index(table)),
                "{name} {}",
                want.table_name(table)
            );
        }
    }

    #[test]
    fn tatp_load_matches_the_per_row_reference() {
        let cfg = TatpConfig { subscribers: 5_000 };
        let mut db = Database::new(NODES);
        Tatp::setup(&mut db, cfg);
        let mut r = Reference::new();
        let subscriber = r.table("tatp-subscriber", IndexKind::HashTable);
        let access_info = r.table("tatp-access-info", IndexKind::HashTable);
        let special_facility = r.table("tatp-special-facility", IndexKind::HashTable);
        let call_forwarding = r.table("tatp-call-forwarding", IndexKind::BTree);
        for s in 0..cfg.subscribers {
            r.insert(subscriber, s, &[0u8; 128]);
            r.insert(access_info, s, &[0u8; 64]);
            r.insert(special_facility, s, &[0u8; 64]);
            r.insert(call_forwarding, s, &[0u8; 64]);
        }
        assert_same_load("TATP", &db, &r);
    }

    #[test]
    fn smallbank_load_matches_the_per_row_reference() {
        let cfg = SmallbankConfig {
            accounts: 9_000,
            hotspot: None,
        };
        let mut db = Database::new(NODES);
        Smallbank::setup(&mut db, cfg);
        let mut r = Reference::new();
        let checking = r.table("smallbank-checking", IndexKind::HashTable);
        let savings = r.table("smallbank-savings", IndexKind::HashTable);
        let mut v = [0u8; 64];
        v[..8].copy_from_slice(&INITIAL_BALANCE.to_le_bytes());
        for a in 0..cfg.accounts {
            r.insert(checking, a, &v);
            r.insert(savings, a, &v);
        }
        assert_same_load("Smallbank", &db, &r);
    }

    #[test]
    fn ycsb_load_matches_the_per_row_reference() {
        for store in [IndexKind::HashTable, IndexKind::BTree] {
            let cfg = YcsbConfig {
                keys: 10_000,
                ..YcsbConfig::paper(store, YcsbVariant::A)
            };
            let mut db = Database::new(NODES);
            Ycsb::setup(&mut db, cfg);
            let mut r = Reference::new();
            let table = r.table(&format!("ycsb-{}", store.label()), store);
            for key in 0..cfg.keys {
                r.insert(table, key, &vec![0u8; cfg.value_bytes]);
            }
            assert_same_load(&format!("YCSB {}", store.label()), &db, &r);
        }
    }

    #[test]
    fn tpcc_load_matches_the_per_row_reference() {
        let cfg = TpccConfig {
            warehouses: 2,
            districts_per_warehouse: 10,
            customers_per_district: 30,
            items: 10_000,
            order_slots_per_district: 50,
        };
        let mut db = Database::new(NODES);
        Tpcc::setup(&mut db, cfg);
        let mut r = Reference::new();
        let warehouse = r.table("tpcc-warehouse", IndexKind::HashTable);
        let district = r.table("tpcc-district", IndexKind::HashTable);
        let customer = r.table("tpcc-customer", IndexKind::BTree);
        let item = r.table("tpcc-item", IndexKind::HashTable);
        let stock = r.table("tpcc-stock", IndexKind::HashTable);
        let orders = r.table("tpcc-orders", IndexKind::BPlusTree);
        let districts = cfg.warehouses * cfg.districts_per_warehouse;
        for w in 0..cfg.warehouses {
            r.insert(warehouse, w, &[0u8; 96]);
        }
        for d in 0..districts {
            r.insert(district, d, &[0u8; 96]);
        }
        for d in 0..districts {
            for c in 0..cfg.customers_per_district {
                r.insert(customer, d * cfg.customers_per_district + c, &[0u8; 192]);
            }
        }
        for i in 0..cfg.items {
            r.insert(item, i, &[0u8; 64]);
        }
        let stock_per_w = cfg.items.min(100_000);
        for w in 0..cfg.warehouses {
            for s in 0..stock_per_w {
                r.insert(stock, w * stock_per_w + s, &[0u8; 192]);
            }
        }
        for d in 0..districts {
            for o in 0..cfg.order_slots_per_district {
                r.insert(orders, d * cfg.order_slots_per_district + o, &[0u8; 256]);
            }
        }
        assert_same_load("TPC-C", &db, &r);
    }
}

mod btree {
    use hades::storage::index::{BTree, KvIndex};
    use hades::storage::record::RecordId;

    #[test]
    fn height_grows_logarithmically() {
        let mut t = BTree::new();
        for k in 0..100_000u64 {
            t.insert(k, RecordId(k as u32));
        }
        let h = t.height();
        // log_8(100k) ~ 5.5; sequential inserts make half-full nodes, allow 8.
        assert!((4..=8).contains(&h), "height {h}");
        // Depth of any lookup is bounded by the height.
        for k in (0..100_000u64).step_by(9973) {
            assert!(t.get(k).unwrap().depth <= h);
        }
    }

    #[test]
    fn random_order_inserts_all_found() {
        let mut t = BTree::new();
        let mut key = 1u64;
        let mut inserted = Vec::new();
        for i in 0..30_000u32 {
            key = key
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            t.insert(key, RecordId(i));
            inserted.push((key, i));
        }
        for (k, i) in inserted {
            assert_eq!(t.get(k).unwrap().rid, RecordId(i), "key {k}");
        }
    }

    #[test]
    fn promoted_key_overwrite_during_split() {
        // Regression: inserting a key equal to one just promoted by a
        // preemptive split must overwrite, not duplicate.
        let mut t = BTree::new();
        for k in 0..64u64 {
            t.insert(k, RecordId(k as u32));
        }
        let n = t.len();
        for k in 0..64u64 {
            assert_eq!(
                t.insert(k, RecordId(1000 + k as u32)),
                Some(RecordId(k as u32))
            );
        }
        assert_eq!(t.len(), n);
    }
}

mod bplus_tree {
    use hades::storage::index::{BPlusTree, KvIndex};
    use hades::storage::record::RecordId;

    #[test]
    fn scan_crosses_leaf_boundaries() {
        let mut t = BPlusTree::new();
        for k in 0..500u64 {
            t.insert(k * 2, RecordId(k as u32)); // even keys
        }
        let got: Vec<u64> = t.scan_keys(101, 10).collect();
        assert_eq!(got, (51..61).map(|k| k * 2).collect::<Vec<_>>());
        // Scan past the end stops cleanly.
        let tail: Vec<u64> = t.scan_keys(995, 10).collect();
        assert_eq!(tail, vec![996, 998]);
        // Scan from before the first key.
        let head: Vec<u64> = t.scan_keys(0, 3).collect();
        assert_eq!(head, vec![0, 2, 4]);
    }

    #[test]
    fn height_grows_logarithmically() {
        let mut t = BPlusTree::new();
        for k in 0..200_000u64 {
            t.insert(k, RecordId(k as u32));
        }
        let h = t.height();
        assert!((4..=8).contains(&h), "height {h}");
        for k in (0..200_000u64).step_by(7919) {
            let hit = t.get(k).unwrap();
            assert_eq!(hit.depth, h, "every lookup reaches a leaf");
        }
    }

    #[test]
    fn random_order_inserts_all_found_and_sorted() {
        let mut t = BPlusTree::new();
        let mut key = 7u64;
        let mut keys = Vec::new();
        for i in 0..20_000u32 {
            key = key.wrapping_mul(6364136223846793005).wrapping_add(13);
            t.insert(key, RecordId(i));
            keys.push(key);
        }
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(t.len(), keys.len());
        let scanned: Vec<u64> = t.scan_keys(0, keys.len() + 10).collect();
        assert_eq!(scanned, keys);
    }
}

mod skip_list {
    use hades::storage::index::{KvIndex, SkipList};
    use hades::storage::record::RecordId;

    #[test]
    fn iteration_is_sorted_regardless_of_insert_order() {
        let mut s = SkipList::new();
        for k in [9u64, 3, 7, 1, 5, 2, 8, 6, 4, 0] {
            s.insert(k, RecordId(k as u32));
        }
        let keys: Vec<u64> = s.iter_keys().collect();
        assert_eq!(keys, (0..10).collect::<Vec<u64>>());
    }

    #[test]
    fn depth_is_logarithmic() {
        let mut s = SkipList::new();
        for k in 0..100_000u64 {
            s.insert(k, RecordId(k as u32));
        }
        let total: u64 = (0..1000u64)
            .map(|i| s.get(i * 97).unwrap().depth as u64)
            .sum();
        let avg = total as f64 / 1000.0;
        // ~2*log2(n) expected; allow generous slack.
        assert!(avg < 80.0, "average skip-list depth {avg} too deep");
        assert!(avg > 5.0, "suspiciously shallow for 100k keys: {avg}");
    }

    #[test]
    fn structure_is_deterministic() {
        let mut a = SkipList::new();
        let mut b = SkipList::new();
        for k in 0..1000u64 {
            a.insert(k, RecordId(0));
        }
        for k in (0..1000u64).rev() {
            b.insert(k, RecordId(0));
        }
        // Same keys -> same tower heights -> same lookup depths.
        for k in (0..1000u64).step_by(37) {
            assert_eq!(a.get(k).unwrap().depth, b.get(k).unwrap().depth);
        }
    }
}

mod hash_table {
    use hades::storage::index::{HashTable, KvIndex};
    use hades::storage::record::RecordId;

    #[test]
    #[should_panic(expected = "is reserved")]
    fn reserved_rids_are_rejected() {
        HashTable::new().insert(1, RecordId(u32::MAX));
    }

    #[test]
    fn probe_depth_is_short_on_average() {
        let mut ht = HashTable::new();
        for k in 0..50_000u64 {
            ht.insert(k.wrapping_mul(0x1234_5679), RecordId(k as u32));
        }
        let total: u64 = (0..50_000u64)
            .map(|k| ht.get(k.wrapping_mul(0x1234_5679)).unwrap().depth as u64)
            .sum();
        let avg = total as f64 / 50_000.0;
        assert!(avg < 2.5, "average probe depth {avg} too deep");
    }
}
