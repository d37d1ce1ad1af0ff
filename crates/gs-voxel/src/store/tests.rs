use super::*;
use gs_scene::{SceneConfig, SceneKind};
use gs_vq::{GaussianQuantizer, VqConfig};

fn scene_cloud() -> (GaussianCloud, VoxelGrid) {
    let scene = SceneKind::Lego.build(&SceneConfig::tiny());
    let grid = VoxelGrid::build(&scene.trained, scene.voxel_size);
    (scene.trained, grid)
}

#[test]
fn layout_mirrors_grid() {
    let (cloud, grid) = scene_cloud();
    let store = VoxelStore::from_cloud(&cloud, &grid);
    assert_eq!(store.len(), cloud.len());
    assert_eq!(store.voxel_count(), grid.voxel_count());
    for v in 0..grid.voxel_count() as u32 {
        assert_eq!(store.ids_of(v), grid.gaussians_of(v));
        let slots = store.slots_of(v);
        assert_eq!(
            (slots.end - slots.start) as usize,
            grid.gaussians_of(v).len()
        );
    }
    assert_eq!(store.coarse_column_bytes(), cloud.len() as u64 * 16);
    assert_eq!(store.fine_column_bytes(), cloud.len() as u64 * 220);
    assert!(!store.is_paged());
    assert_eq!(store.page_faults(), 0);
    assert_eq!(store.page_config(), None);
    assert_eq!(store.fault_snapshot(), StoreFaultSnapshot::default());
}

#[test]
fn raw_fetch_is_bit_exact() {
    let (cloud, grid) = scene_cloud();
    let store = VoxelStore::from_cloud(&cloud, &grid);
    let mut ledger = TrafficLedger::new();
    for v in 0..store.voxel_count() as u32 {
        let coarse: Vec<_> = store.fetch_coarse(v, &mut ledger).collect();
        for (slot, pos, s_max) in coarse {
            let g = &cloud.as_slice()[store.id_of(slot) as usize];
            assert_eq!(pos, g.pos);
            assert_eq!(s_max, g.max_scale());
            assert_eq!(store.try_coarse_of(slot).unwrap(), (g.pos, g.max_scale()));
            assert_eq!(&store.fetch_fine(slot, &mut ledger), g);
        }
    }
    let n = cloud.len() as u64;
    assert_eq!(ledger.get(Stage::VoxelCoarse, Direction::Read), n * 16);
    // try_coarse_of is unmetered: the fine demand is exactly one record
    // per slot.
    assert_eq!(ledger.get(Stage::VoxelFine, Direction::Read), n * 220);
}

#[test]
fn vq_fetch_matches_quantizer_decode_bit_exactly() {
    let (cloud, grid) = scene_cloud();
    let quant = GaussianQuantizer::train(&cloud, &VqConfig::tiny());
    let store = VoxelStore::from_quantized(&quant, &grid);
    assert!(store.is_vq());
    assert_eq!(
        store.fine_bytes_per_gaussian(),
        quant.fine_bytes_per_gaussian()
    );
    let mut ledger = TrafficLedger::new();
    for slot in 0..store.len() as u32 {
        let gi = store.id_of(slot) as usize;
        assert_eq!(store.fetch_fine(slot, &mut ledger), quant.decode_one(gi));
    }
    assert_eq!(
        ledger.get(Stage::VoxelFine, Direction::Read),
        store.len() as u64 * store.fine_bytes_per_gaussian()
    );
}

#[test]
fn coarse_metering_is_whole_voxel_bursts() {
    let (cloud, grid) = scene_cloud();
    let store = VoxelStore::from_cloud(&cloud, &grid);
    let mut ledger = TrafficLedger::new();
    let v = 0u32;
    // Dropping the iterator without consuming it still meters the
    // burst: the accelerator streams the whole voxel regardless.
    let _ = store.fetch_coarse(v, &mut ledger);
    assert_eq!(
        ledger.get(Stage::VoxelCoarse, Direction::Read),
        grid.gaussians_of(v).len() as u64 * 16
    );
}

#[test]
fn paged_twin_is_bit_exact_raw() {
    let (cloud, grid) = scene_cloud();
    let store = VoxelStore::from_cloud(&cloud, &grid);
    let paged = store.paged_twin(PageConfig {
        slots_per_page: 7,
        ..PageConfig::default()
    });
    assert!(paged.is_paged());
    assert!(!paged.is_vq());
    assert!(
        paged.page_config().unwrap().verify_checksums,
        "v2 images verify by default"
    );
    assert_eq!(paged.len(), store.len());
    assert_eq!(paged.voxel_count(), store.voxel_count());
    let mut la = TrafficLedger::new();
    let mut lb = TrafficLedger::new();
    for v in 0..store.voxel_count() as u32 {
        assert_eq!(paged.ids_of(v), store.ids_of(v));
        let a: Vec<_> = store.fetch_coarse(v, &mut la).collect();
        let b: Vec<_> = paged.fetch_coarse(v, &mut lb).collect();
        assert_eq!(a, b);
    }
    for slot in 0..store.len() as u32 {
        assert_eq!(
            store.fetch_fine(slot, &mut la),
            paged.fetch_fine(slot, &mut lb)
        );
    }
    assert_eq!(la, lb, "paged metering must be identical");
    assert!(paged.page_faults() > 0);
    // Fault-free run: nothing retried, nothing dead, nothing injected.
    assert_eq!(paged.fault_snapshot(), StoreFaultSnapshot::default());
}

#[test]
fn paged_twin_is_bit_exact_vq_and_respects_budget() {
    let (cloud, grid) = scene_cloud();
    let quant = GaussianQuantizer::train(&cloud, &VqConfig::tiny());
    let store = VoxelStore::from_quantized(&quant, &grid);
    let budget = PageConfig {
        slots_per_page: 8,
        max_resident_pages: 2,
        ..PageConfig::default()
    };
    let paged = store.paged_twin(budget);
    assert!(paged.is_vq());
    let mut l = TrafficLedger::new();
    for slot in 0..store.len() as u32 {
        assert_eq!(
            paged.fetch_fine(slot, &mut l),
            quant.decode_one(paged.id_of(slot) as usize)
        );
    }
    // Two columns × two pages × 8 slots each is the residency ceiling.
    let per_page = 8 * (COARSE_BYTES as u64).max(paged.fine_bytes_per_gaussian());
    assert!(paged.resident_column_bytes() <= 4 * per_page);
    // The budget forces evictions: more faults than distinct pages.
    let distinct = 2 * (store.len() as u64).div_ceil(8);
    assert!(
        paged.page_faults() >= distinct,
        "faults {} < distinct pages {}",
        paged.page_faults(),
        distinct
    );
}

/// Fresh resident stores (raw, VQ) of the 48-Gaussian Lego cloud the
/// committed images under `tests/golden/images/` were written from.
fn fixture_stores() -> [VoxelStore; 2] {
    let scene = SceneKind::Lego.build(&SceneConfig {
        gaussians: 48,
        ..SceneConfig::tiny()
    });
    let grid = VoxelGrid::build(&scene.trained, scene.voxel_size);
    let quant = GaussianQuantizer::train(&scene.trained, &VqConfig::tiny());
    [
        VoxelStore::from_cloud(&scene.trained, &grid),
        VoxelStore::from_quantized(&quant, &grid),
    ]
}

/// Opens a committed image and asserts it fetches exactly what `want`
/// fetches — every coarse record, every fine record, the same ledger.
fn assert_image_matches(want: &VoxelStore, image: &[u8]) -> VoxelStore {
    let got = VoxelStore::open_paged_bytes(image.to_vec(), PageConfig::default())
        .expect("committed image must stay readable");
    assert_eq!(got.is_vq(), want.is_vq());
    assert_eq!(got.voxel_count(), want.voxel_count());
    let (mut la, mut lb) = (TrafficLedger::new(), TrafficLedger::new());
    for v in 0..want.voxel_count() as u32 {
        assert!(want
            .fetch_coarse(v, &mut la)
            .eq(got.fetch_coarse(v, &mut lb)));
    }
    for slot in 0..want.len() as u32 {
        assert_eq!(
            want.fetch_fine(slot, &mut la),
            got.fetch_fine(slot, &mut lb)
        );
    }
    assert_eq!(la, lb);
    got
}

#[test]
fn v1_images_remain_readable_without_verification() {
    let images: [&[u8]; 2] = [
        include_bytes!("../../tests/golden/images/v1_raw.bin"),
        include_bytes!("../../tests/golden/images/v1_vq.bin"),
    ];
    for (store, image) in fixture_stores().iter().zip(images) {
        assert_eq!(u32::from_le_bytes(image[4..8].try_into().unwrap()), 1);
        let v1 = assert_image_matches(store, image);
        // Verification was requested (default) but the image has no
        // tables: the effective config flags it off.
        assert!(!v1.page_config().unwrap().verify_checksums);
    }
}

#[test]
fn corrupt_column_byte_surfaces_as_corrupt_page() {
    let (cloud, grid) = scene_cloud();
    let store = VoxelStore::from_cloud(&cloud, &grid);
    let mut image = store.to_scene_bytes();
    let n = store.len();
    // Flip one byte in the middle of the coarse column (the columns sit at
    // the very end of the image: coarse then fine).
    let coarse_off = image.len() - n * FINE_BYTES_RAW - n * COARSE_BYTES;
    let at = coarse_off + (n / 2) * COARSE_BYTES;
    image[at] ^= 0x40;
    // Metadata is untouched, so the image still opens…
    let paged = VoxelStore::open_paged_bytes(image.clone(), PageConfig::default())
        .expect("column corruption is detected at fetch, not open");
    // …but fetching the affected voxel reports the corrupt chunk.
    let mut l = TrafficLedger::new();
    let mut saw_corrupt = false;
    for v in 0..paged.voxel_count() as u32 {
        match paged.try_fetch_coarse(v, &mut l).map(|it| it.count()) {
            Ok(_) => {}
            Err(StoreError::CorruptPage { column, .. }) => {
                assert_eq!(column, ColumnKind::Coarse);
                saw_corrupt = true;
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    assert!(saw_corrupt, "the corrupted chunk was never touched");
    // Persistent corruption burns the retry budget each time.
    assert!(paged.fault_snapshot().retries > 0);
    // With verification off the corruption goes undetected — but must
    // still never panic (it decodes to a wrong Gaussian, by contract).
    let blind = VoxelStore::open_paged_bytes(
        image,
        PageConfig {
            verify_checksums: false,
            ..PageConfig::default()
        },
    )
    .expect("open");
    for v in 0..blind.voxel_count() as u32 {
        let _ = blind.try_fetch_coarse(v, &mut l).map(|it| it.count());
    }
}

#[test]
fn metadata_corruption_is_rejected_at_open() {
    let (cloud, grid) = scene_cloud();
    let store = VoxelStore::from_cloud(&cloud, &grid);
    let good = store.to_scene_bytes();
    // A flipped byte inside the range table breaks the metadata CRC.
    let mut evil = good.clone();
    evil[30] ^= 0x01;
    assert!(VoxelStore::open_paged_bytes(evil, PageConfig::default()).is_err());
}

#[test]
fn transient_faults_recover_bit_exactly_and_count_retries() {
    let (cloud, grid) = scene_cloud();
    let store = VoxelStore::from_cloud(&cloud, &grid);
    let paged = store
        .paged_twin_with_faults(
            PageConfig {
                slots_per_page: 8,
                max_read_attempts: 8,
                ..PageConfig::default()
            },
            FaultPolicy::transient(0xDECAF, 150),
        )
        .expect("open with faults");
    let mut la = TrafficLedger::new();
    let mut lb = TrafficLedger::new();
    for v in 0..store.voxel_count() as u32 {
        let a: Vec<_> = store.fetch_coarse(v, &mut la).collect();
        let b: Vec<_> = paged
            .try_fetch_coarse(v, &mut lb)
            .expect("transient faults must recover")
            .collect();
        assert_eq!(a, b);
    }
    for slot in 0..store.len() as u32 {
        assert_eq!(
            store.fetch_fine(slot, &mut la),
            paged.try_fetch_fine(slot, &mut lb).expect("recover")
        );
    }
    assert_eq!(la, lb, "recovered fetches meter identically");
    let snap = paged.fault_snapshot();
    assert!(snap.injected.transient > 0, "no faults were injected");
    // Every injected (non-permanent) fault is exactly one retry.
    assert_eq!(
        snap.retries,
        snap.injected.total() - snap.injected.permanent
    );
    assert_eq!(snap.dead_pages, 0);
}

#[test]
fn permanent_faults_mark_pages_dead_and_stay_dead() {
    let (cloud, grid) = scene_cloud();
    let store = VoxelStore::from_cloud(&cloud, &grid);
    let paged = store
        .paged_twin_with_faults(
            PageConfig {
                slots_per_page: 4,
                ..PageConfig::default()
            },
            FaultPolicy {
                seed: 7,
                permanent_per_mille: 300,
                ..FaultPolicy::default()
            },
        )
        .expect("open with faults");
    let mut l = TrafficLedger::new();
    let mut lost = Vec::new();
    for v in 0..paged.voxel_count() as u32 {
        if let Err(e) = paged.try_fetch_coarse(v, &mut l).map(|it| it.count()) {
            match e {
                StoreError::PageLost { .. } => lost.push(v),
                other => panic!("unexpected error: {other}"),
            }
        }
    }
    assert!(!lost.is_empty(), "no pages went permanently dark at 30%");
    let snap = paged.fault_snapshot();
    assert!(snap.dead_pages > 0);
    // Dead pages fail fast on re-fetch without new injector draws.
    let before = paged.fault_snapshot().injected;
    for &v in &lost {
        assert!(matches!(
            paged.try_fetch_coarse(v, &mut l).map(|it| it.count()),
            Err(StoreError::PageLost { .. })
        ));
    }
    assert_eq!(paged.fault_snapshot().injected, before);
}

#[test]
fn scene_file_round_trips_on_disk() {
    let (cloud, grid) = scene_cloud();
    let store = VoxelStore::from_cloud(&cloud, &grid);
    let path = std::env::temp_dir().join("gsvs_store_roundtrip.gsvs");
    store.write_scene_file(&path).expect("write scene file");
    let paged = VoxelStore::open_paged_file(&path, PageConfig::default()).expect("open");
    let mut la = TrafficLedger::new();
    let mut lb = TrafficLedger::new();
    for slot in 0..store.len() as u32 {
        assert_eq!(
            store.fetch_fine(slot, &mut la),
            paged.fetch_fine(slot, &mut lb)
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn write_scene_file_leaves_no_temp_litter() {
    let (cloud, grid) = scene_cloud();
    let store = VoxelStore::from_cloud(&cloud, &grid);
    let dir = std::env::temp_dir().join("gsvs_atomic_write_test");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("scene.gsvs");
    store.write_scene_file(&path).expect("first write");
    // Overwriting an existing image is atomic: the destination always
    // holds either the old or the new complete image.
    store.write_scene_file(&path).expect("overwrite");
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .expect("read_dir")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".tmp"))
        .collect();
    assert!(
        leftovers.is_empty(),
        "temp files left behind: {leftovers:?}"
    );
    VoxelStore::open_paged_file(&path, PageConfig::default()).expect("reopen");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rewriting_a_file_paged_store_over_its_own_backing_is_safe() {
    let (cloud, grid) = scene_cloud();
    let store = VoxelStore::from_cloud(&cloud, &grid);
    let path = std::env::temp_dir().join("gsvs_rewrite_self.gsvs");
    store.write_scene_file(&path).expect("initial write");
    let paged = VoxelStore::open_paged_file(
        &path,
        PageConfig {
            slots_per_page: 8,
            max_resident_pages: 2,
            ..PageConfig::default()
        },
    )
    .expect("open");
    let mut l = TrafficLedger::new();
    let g0 = paged.fetch_fine(0, &mut l);
    // Re-writing over the store's own backing file must serialize
    // (paging everything in) before touching the destination.
    paged.write_scene_file(&path).expect("rewrite over self");
    assert_eq!(paged.fetch_fine(0, &mut l), g0);
    let reopened = VoxelStore::open_paged_file(&path, PageConfig::default()).expect("reopen");
    assert_eq!(reopened.fetch_fine(0, &mut l), g0);
    std::fs::remove_file(&path).ok();
}

#[test]
fn open_rejects_garbage() {
    let err = VoxelStore::open_paged_bytes(vec![0u8; 16], PageConfig::default());
    assert!(err.is_err());
    let err = VoxelStore::open_paged_bytes(Vec::new(), PageConfig::default());
    assert!(err.is_err());
}

#[test]
fn open_rejects_hostile_headers_without_allocating() {
    let (cloud, grid) = scene_cloud();
    let good = VoxelStore::from_cloud(&cloud, &grid).to_scene_bytes();
    // Huge n_voxels: must fail the length check, not allocate ~34 GB.
    let mut evil = good.clone();
    evil[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(VoxelStore::open_paged_bytes(evil, PageConfig::default()).is_err());
    // A slot range pointing past the slot column must fail at open, not
    // out-of-bounds at render time (the v2 range table starts at byte 28;
    // this clobbers voxel 0's end bound).
    let mut evil = good.clone();
    evil[32..36].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(VoxelStore::open_paged_bytes(evil, PageConfig::default()).is_err());
    // Truncated columns fail at open too.
    let mut evil = good.clone();
    evil.truncate(good.len() - 100);
    assert!(VoxelStore::open_paged_bytes(evil, PageConfig::default()).is_err());
    // Trailing garbage violates the strict framing check.
    let mut evil = good.clone();
    evil.extend_from_slice(&[0u8; 3]);
    assert!(VoxelStore::open_paged_bytes(evil, PageConfig::default()).is_err());
    // Unknown flag bits reject (forward compatibility).
    let mut evil = good.clone();
    evil[8] |= 0x80;
    assert!(VoxelStore::open_paged_bytes(evil, PageConfig::default()).is_err());
}

#[test]
fn clone_of_paged_store_starts_cold_but_reads_identically() {
    let (cloud, grid) = scene_cloud();
    let store = VoxelStore::from_cloud(&cloud, &grid);
    let paged = store.paged_twin(PageConfig::default());
    let mut l = TrafficLedger::new();
    let g0 = paged.fetch_fine(0, &mut l);
    let cold = paged.clone();
    assert_eq!(cold.page_faults(), 0, "clones share no page state");
    assert_eq!(cold.fetch_fine(0, &mut l), g0);
}

// --- LOD tiers (scene image v3) ------------------------------------------

/// A two-tier ladder exercising SH truncation, pruning and (for VQ)
/// codebook shrinking.
fn tier_ladder() -> [TierSpec; 2] {
    [
        TierSpec {
            sh_degree: 1,
            keep_permille: 1000,
            codebook_shift: 1,
        },
        TierSpec {
            sh_degree: 0,
            keep_permille: 500,
            codebook_shift: 2,
        },
    ]
}

#[test]
fn tiered_raw_store_round_trips_through_v3() {
    let (cloud, grid) = scene_cloud();
    let mut store = VoxelStore::from_cloud(&cloud, &grid);
    store.build_tiers(&cloud, None, &tier_ladder(), None);
    assert_eq!(store.tier_count(), 2);
    assert_eq!(store.tier_record_bytes(0), 76); // SH degree 1
    assert_eq!(store.tier_record_bytes(1), 40); // SH degree 0
                                                // keep_permille prunes globally: tier 1 keeps ceil(n/2) slots.
    let n = store.len();
    let t1_slots: usize = (0..store.voxel_count() as u32)
        .map(|v| store.tier_slots_of(1, v).len())
        .sum();
    assert_eq!(t1_slots, n.div_ceil(2));
    let image = store.to_scene_bytes();
    assert_eq!(u32::from_le_bytes(image[4..8].try_into().unwrap()), 3);
    let paged = VoxelStore::open_paged_bytes(
        image,
        PageConfig {
            slots_per_page: 7,
            ..PageConfig::default()
        },
    )
    .unwrap();
    assert_eq!(paged.tier_count(), 2);
    for t in 0..2 {
        assert_eq!(paged.tier_spec(t), store.tier_spec(t));
        assert_eq!(paged.tier_record_bytes(t), store.tier_record_bytes(t));
        let (mut a, mut b) = (TrafficLedger::new(), TrafficLedger::new());
        for v in 0..store.voxel_count() as u32 {
            assert_eq!(paged.tier_slots_of(t, v), store.tier_slots_of(t, v));
            for ts in store.tier_slots_of(t, v) {
                assert_eq!(paged.tier_global_slot(t, ts), store.tier_global_slot(t, ts));
                assert_eq!(
                    paged.try_fetch_tier_fine(t, ts, &mut a).unwrap(),
                    store.try_fetch_tier_fine(t, ts, &mut b).unwrap()
                );
            }
        }
        assert_eq!(a, b, "paged tier fetches meter identically");
        assert_eq!(
            a.tier_demand(t + 1),
            store.tier_record_bytes(t)
                * (0..store.voxel_count() as u32)
                    .map(|v| store.tier_slots_of(t, v).len() as u64)
                    .sum::<u64>()
        );
    }
    // Tier decodes equal the SH-truncated source for unpruned slots.
    for ts in store.tier_slots_of(0, 3) {
        let slot = store.tier_global_slot(0, ts);
        let g = &cloud.as_slice()[store.id_of(slot) as usize];
        let mut l = TrafficLedger::new();
        let dec = store.try_fetch_tier_fine(0, ts, &mut l).unwrap();
        assert_eq!(dec, gs_vq::tier::truncate_sh(g.clone(), 1));
    }
}

#[test]
fn tiered_vq_store_round_trips_through_v3() {
    let (cloud, grid) = scene_cloud();
    let cfg = VqConfig::tiny();
    let quant = GaussianQuantizer::train(&cloud, &cfg);
    let mut store = VoxelStore::from_quantized(&quant, &grid);
    store.build_tiers(&cloud, Some(&cfg), &tier_ladder(), None);
    assert_eq!(store.tier_count(), 2);
    // Tier records are strictly narrower than full-quality VQ records.
    assert!(store.tier_record_bytes(0) < store.fine_bytes_per_gaussian());
    assert!(store.tier_record_bytes(1) < store.tier_record_bytes(0));
    let paged = store
        .try_paged_twin(PageConfig {
            slots_per_page: 5,
            max_resident_pages: 3,
            ..PageConfig::default()
        })
        .unwrap();
    assert_eq!(paged.tier_count(), 2);
    for t in 0..2 {
        let (mut a, mut b) = (TrafficLedger::new(), TrafficLedger::new());
        for v in 0..store.voxel_count() as u32 {
            for ts in store.tier_slots_of(t, v) {
                assert_eq!(
                    paged.try_fetch_tier_fine(t, ts, &mut a).unwrap(),
                    store.try_fetch_tier_fine(t, ts, &mut b).unwrap()
                );
            }
        }
        assert_eq!(a, b);
    }
    // Tier columns page independently: the eviction budget above forces
    // re-faults, and the dead-page maps exist per tier.
    assert!(paged.page_faults() > 0);
    assert!(!paged.dead_page_map(ColumnKind::Tier(0)).is_empty());
    assert!(!paged.dead_page_map(ColumnKind::Tier(1)).is_empty());
    assert!(paged.dead_page_map(ColumnKind::Tier(0)).iter().all(|&d| !d));
}

#[test]
fn tierless_v3_image_matches_v2_fetches() {
    let images: [&[u8]; 2] = [
        include_bytes!("../../tests/golden/images/v3_single_raw.bin"),
        include_bytes!("../../tests/golden/images/v3_single_vq.bin"),
    ];
    for (store, image) in fixture_stores().iter().zip(images) {
        assert_eq!(u32::from_le_bytes(image[4..8].try_into().unwrap()), 3);
        let v2 = store.to_scene_bytes();
        assert_eq!(u32::from_le_bytes(v2[4..8].try_into().unwrap()), 2);
        let v3 = assert_image_matches(store, image);
        assert_eq!(v3.tier_count(), 0);
        assert!(v3.page_config().unwrap().verify_checksums);
        assert_image_matches(store, &v2);
    }
}

#[test]
fn v3_tier_corruption_is_detected_per_tier_page() {
    let (cloud, grid) = scene_cloud();
    let mut store = VoxelStore::from_cloud(&cloud, &grid);
    store.build_tiers(&cloud, None, &tier_ladder(), None);
    let image = store.to_scene_bytes();
    // Flip one byte in the *last* tier's column (the image tail).
    let mut evil = image.clone();
    let at = evil.len() - 10;
    evil[at] ^= 0xFF;
    let paged = VoxelStore::open_paged_bytes(evil, PageConfig::default()).unwrap();
    let last = paged.tier_count() - 1;
    let n_tier_slots: u32 = (0..paged.voxel_count() as u32)
        .map(|v| paged.tier_slots_of(last, v).len() as u32)
        .sum();
    let mut l = TrafficLedger::new();
    let err = (0..n_tier_slots)
        .find_map(|ts| paged.try_fetch_tier_fine(last, ts, &mut l).err())
        .expect("a corrupt tier page must fail its checksum");
    assert!(
        matches!(err, StoreError::CorruptPage { column: ColumnKind::Tier(t), .. } if t as usize == last),
        "unexpected error: {err}"
    );
    // Tier 0 and the other tier still fetch fine.
    assert!(paged.try_fetch_fine(0, &mut l).is_ok());
    assert!(paged.try_fetch_tier_fine(0, 0, &mut l).is_ok());
}

#[test]
fn importance_scores_steer_tier_pruning() {
    let (cloud, grid) = scene_cloud();
    let mut by_imp = VoxelStore::from_cloud(&cloud, &grid);
    // Rank Gaussian ids by descending id: the kept half is the upper ids.
    let imp: Vec<f64> = (0..cloud.len()).map(|i| i as f64).collect();
    by_imp.build_tiers(
        &cloud,
        None,
        &[TierSpec {
            sh_degree: 0,
            keep_permille: 500,
            codebook_shift: 0,
        }],
        Some(&imp),
    );
    let kept: Vec<u32> = (0..by_imp.voxel_count() as u32)
        .flat_map(|v| {
            by_imp
                .tier_slots_of(0, v)
                .map(|ts| by_imp.id_of(by_imp.tier_global_slot(0, ts)))
                .collect::<Vec<_>>()
        })
        .collect();
    assert_eq!(kept.len(), cloud.len().div_ceil(2));
    let cutoff = cloud.len() as u32 - kept.len() as u32;
    assert!(
        kept.iter().all(|&id| id >= cutoff),
        "importance pruning must keep the top-ranked ids"
    );
}
