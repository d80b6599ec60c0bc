//! Randomized property tests for the simulated-hardware substrates,
//! driven by the deterministic in-repo [`Prng`] (seed honors `HTAPG_SEED`,
//! printed on failure).

use htapg_core::prng::{check_cases, Prng};
use htapg_device::cluster::SimCluster;
use htapg_device::disk::SimDisk;
use htapg_device::kernels::{self, tree_sum};
use htapg_device::{DeviceSpec, SimDevice};

fn upload_f64(device: &SimDevice, values: &[f64]) -> htapg_device::BufferId {
    let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
    device.upload(&bytes).unwrap()
}

#[test]
fn reduction_is_accurate_and_deterministic() {
    check_cases("reduction_is_accurate_and_deterministic", 64, 0xDE71_CE01, |_, rng| {
        let values: Vec<f64> =
            (0..rng.gen_range(0usize..2000)).map(|_| rng.gen_range(-1e6..1e6)).collect();
        let device = SimDevice::with_defaults();
        let buf = upload_f64(&device, &values);
        let a = kernels::reduce_sum_f64(&device, buf).unwrap();
        let b = kernels::reduce_sum_f64(&device, buf).unwrap();
        assert_eq!(a.to_bits(), b.to_bits(), "bit-determinism");
        let reference: f64 = values.iter().sum();
        assert!((a - reference).abs() <= 1e-9 * reference.abs().max(1.0) + 1e-6);
        // Tree order equals the kernel's result exactly for the same split.
        assert!((tree_sum(&values) - a).abs() <= 1e-9 * reference.abs().max(1.0) + 1e-6);
    });
}

/// The recursive definition of the canonical tree order — split at
/// `n / 2`, down to single values — kept as the oracle of the unrolled
/// [`tree_sum`].
fn tree_sum_recursive(values: &[f64]) -> f64 {
    match values.len() {
        0 => 0.0,
        1 => values[0],
        n => tree_sum_recursive(&values[..n / 2]) + tree_sum_recursive(&values[n / 2..]),
    }
}

/// A value from the whole range a reduction must keep bit-exact:
/// magnitudes from 1e-20 to 1e20, signed zeros, subnormals and (when
/// `inf`) infinities of either sign.
fn arb_mixed_f64(rng: &mut Prng, inf: bool) -> f64 {
    let sign = if rng.gen_bool(0.5) { -1.0 } else { 1.0 };
    match rng.gen_range(0u32..16) {
        0 => sign * 0.0,
        1 => sign * f64::from_bits(rng.gen_range(1u64..1 << 52)),
        2 if inf => sign * f64::INFINITY,
        _ => sign * rng.next_f64() * 10f64.powi(rng.gen_range(-20i32..=20)),
    }
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn unrolled_tree_sum_matches_the_recursive_oracle() {
    check_cases("unrolled_tree_sum_matches_the_recursive_oracle", 6, 0xDE71_CE08, |case, rng| {
        let pool: Vec<f64> = (0..100_000).map(|_| arb_mixed_f64(rng, case % 3 == 2)).collect();
        // Every length up to 4096, each from a random offset.
        for len in 0..=4096 {
            let at = rng.gen_range(0..=pool.len() - len);
            let s = &pool[at..at + len];
            assert_eq!(tree_sum(s).to_bits(), tree_sum_recursive(s).to_bits(), "len {len}");
        }
        for _ in 0..4 {
            let len = rng.gen_range(0..=pool.len());
            let s = &pool[..len];
            assert_eq!(tree_sum(s).to_bits(), tree_sum_recursive(s).to_bits(), "len {len}");
        }
    });
}

#[test]
fn in_place_kernels_match_the_recursive_oracle() {
    // The simulated reductions read their buffers in place through the
    // segment reducer; their partials must still be tree sums of the
    // canonical segments (whole, filtered, and per fragment).
    check_cases("in_place_kernels_match_the_recursive_oracle", 24, 0xDE71_CE09, |case, rng| {
        let values: Vec<f64> =
            (0..rng.gen_range(0usize..20_000)).map(|_| arb_mixed_f64(rng, case % 3 == 2)).collect();
        let n = values.len();
        let device = SimDevice::with_defaults();
        let buf = upload_f64(&device, &values);
        let seg = kernels::reduce_seg_len(n);
        let partials: Vec<f64> = values.chunks(seg).map(tree_sum_recursive).collect();
        let want = tree_sum_recursive(&partials);
        assert_eq!(kernels::reduce_sum_f64(&device, buf).unwrap().to_bits(), want.to_bits());
        let keep = |v: f64| v >= 0.0;
        let kept: Vec<f64> = values
            .chunks(seg)
            .map(|c| {
                tree_sum_recursive(&c.iter().copied().filter(|&v| keep(v)).collect::<Vec<_>>())
            })
            .collect();
        let got = kernels::filter_sum_f64(&device, buf, keep).unwrap();
        assert_eq!(got.to_bits(), tree_sum_recursive(&kept).to_bits());
        let frag = rng.gen_range(1usize..3000);
        let frags: Vec<f64> = values.chunks(frag).map(tree_sum_recursive).collect();
        let got = kernels::reduce_fragment_partials_f64(&device, buf, frag).unwrap();
        assert_eq!(bits(&got), bits(&frags));
    });
}

#[test]
fn allocator_accounting_never_drifts() {
    check_cases("allocator_accounting_never_drifts", 64, 0xDE71_CE04, |_, rng| {
        let sizes: Vec<usize> =
            (0..rng.gen_range(1usize..40)).map(|_| rng.gen_range(1usize..64_000)).collect();
        let device = SimDevice::new(0, DeviceSpec::default());
        let mut live = Vec::new();
        let mut expected = 0usize;
        for (i, &len) in sizes.iter().enumerate() {
            let buf = device.alloc(len).unwrap();
            expected += len;
            live.push((buf, len));
            assert_eq!(device.used_bytes(), expected);
            // Free every third allocation as we go.
            if i % 3 == 2 {
                let (b, l) = live.remove(0);
                device.free(b).unwrap();
                expected -= l;
                assert_eq!(device.used_bytes(), expected);
            }
        }
        for (b, l) in live {
            device.free(b).unwrap();
            expected -= l;
        }
        assert_eq!(device.used_bytes(), 0);
        assert_eq!(expected, 0);
    });
}

#[test]
fn upload_download_identity() {
    check_cases("upload_download_identity", 64, 0xDE71_CE05, |_, rng| {
        let payload: Vec<u8> =
            (0..rng.gen_range(0usize..8192)).map(|_| rng.next_u64() as u8).collect();
        let device = SimDevice::with_defaults();
        let buf = device.upload(&payload).unwrap();
        assert_eq!(device.download(buf).unwrap(), payload);
    });
}

#[test]
fn disk_pages_roundtrip() {
    check_cases("disk_pages_roundtrip", 64, 0xDE71_CE06, |_, rng| {
        let pages: Vec<(u64, Vec<u8>)> = (0..rng.gen_range(1usize..30))
            .map(|_| {
                let page = rng.gen_range(0u64..64);
                let data: Vec<u8> =
                    (0..rng.gen_range(0usize..512)).map(|_| rng.next_u64() as u8).collect();
                (page, data)
            })
            .collect();
        let disk = SimDisk::with_defaults(0);
        let mut model = std::collections::HashMap::new();
        for (page, data) in &pages {
            disk.write_page(*page, data).unwrap();
            model.insert(*page, data.clone());
        }
        for (page, data) in &model {
            assert_eq!(&disk.read_page(*page).unwrap(), data);
        }
    });
}

#[test]
fn cluster_blobs_roundtrip_and_ship() {
    check_cases("cluster_blobs_roundtrip_and_ship", 64, 0xDE71_CE07, |_, rng| {
        let blobs: Vec<(String, Vec<u8>)> = (0..rng.gen_range(1usize..20))
            .map(|_| {
                let len = rng.gen_range(1usize..=6);
                let key: String = std::iter::once('k')
                    .chain((0..len).map(|_| rng.gen_range(b'a'..=b'z') as char))
                    .collect();
                let data: Vec<u8> =
                    (0..rng.gen_range(0usize..256)).map(|_| rng.next_u64() as u8).collect();
                (key, data)
            })
            .collect();
        let cluster = SimCluster::with_defaults(3);
        let mut model = std::collections::HashMap::new();
        for (key, data) in &blobs {
            let home = cluster.place(key);
            cluster.node(home).unwrap().put(key.clone(), data.clone());
            model.insert(key.clone(), data.clone());
        }
        for (key, data) in &model {
            let home = cluster.place(key);
            // Fetch from the coordinator.
            assert_eq!(&cluster.fetch(0, home, key).unwrap(), data);
            // Ship to another node and read it there.
            let dest = (home + 1) % 3;
            cluster.ship(home, key, dest).unwrap();
            assert_eq!(&cluster.node(dest).unwrap().get(key).unwrap(), data);
        }
    });
}
