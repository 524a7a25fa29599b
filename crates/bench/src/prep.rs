//! Dataset preparation and per-dataset E2LSH parameterization.

use ann_datasets::ground_truth::GroundTruth;
use ann_datasets::suite::{self, DatasetId, NamedDataset};
use e2lsh_core::dataset::Dataset;
use e2lsh_core::params::E2lshParams;

/// Harness-wide E2LSH settings (paper Section 3.3): `c = 2`, bucket width
/// `w = 2` (sets the collision probabilities; ρ is then pinned separately
/// per Table 4's practice), effective index exponent `ρ_target = 0.3`, and
/// `γ = 1` unless a sweep overrides it.
pub const C: f32 = 2.0;
pub const W: f32 = 2.0;
pub const RHO_TARGET: f64 = 0.3;
pub const GAMMA: f32 = 1.0;

/// A dataset ready for experiments.
pub struct Workload {
    pub id: DatasetId,
    pub data: Dataset,
    pub queries: Dataset,
    /// Ground truth for the largest k any experiment needs (100).
    pub gt: GroundTruth,
    pub params: E2lshParams,
}

/// E2LSH parameters for a dataset, following the harness defaults.
pub fn e2lsh_params(data: &Dataset) -> E2lshParams {
    e2lsh_params_gamma(data, GAMMA)
}

/// Same with an explicit γ.
pub fn e2lsh_params_gamma(data: &Dataset, gamma: f32) -> E2lshParams {
    E2lshParams::derive_practical(
        data.len(),
        C,
        W,
        gamma,
        RHO_TARGET,
        data.max_abs_coord(),
        data.dim(),
    )
}

/// Load a named dataset at its effective scale with ground truth.
pub fn workload(id: DatasetId) -> Workload {
    workload_sized(id, suite::effective_n(id), 100)
}

/// Load with an explicit size (scaling experiments).
pub fn workload_sized(id: DatasetId, n: usize, n_queries: usize) -> Workload {
    let NamedDataset { data, queries, .. } = suite::load_sized(id, n, n_queries);
    let gt = GroundTruth::compute(&data, &queries, 100.min(n));
    let params = e2lsh_params(&data);
    Workload {
        id,
        data,
        queries,
        gt,
        params,
    }
}

/// The accuracy schedule for E2LSH(oS): pairs of `(γ, S multiplier)`.
/// Smaller γ means fewer hash functions per compound, so buckets catch
/// more (and closer) candidates — higher accuracy at more compute — while
/// a larger `S` budget lets the extra candidates through (paper
/// Section 3.3: γ tunes accuracy without touching the index size `L`;
/// the success-probability shift is "compensated for by the choice of S").
pub fn gamma_schedule() -> Vec<(f32, f64)> {
    vec![
        (1.2, 2.0),
        (1.0, 2.0),
        (0.85, 4.0),
        (0.7, 8.0),
        (0.55, 16.0),
    ]
}

/// Directory where built disk indices are cached across experiment
/// binaries (they are deterministic in (dataset, n, γ)).
pub fn index_cache_dir() -> std::path::PathBuf {
    let dir = std::env::var("E2LSH_INDEX_CACHE")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|_| std::path::PathBuf::from("target/e2lsh-index-cache"));
    std::fs::create_dir_all(&dir).ok();
    dir
}

/// Build (or reuse from cache) the on-storage index for a workload at a
/// given γ. Returns the file path.
pub fn ensure_disk_index(w: &Workload, gamma: f32) -> std::path::PathBuf {
    ensure_disk_index_in(&index_cache_dir(), w.id.name(), &w.data, gamma)
}

/// [`ensure_disk_index`] in `dir`. A cached image is only as good as the
/// binary that built it: the file name carries the on-storage format
/// version and the hash-kernel revision (hash values are rounded
/// projections — another summation order is another index), and a file
/// found under that name is reused only if it opens as an index with the
/// parameters this binary would build; anything else is rebuilt in place.
fn ensure_disk_index_in(
    dir: &std::path::Path,
    name: &str,
    data: &Dataset,
    gamma: f32,
) -> std::path::PathBuf {
    use e2lsh_core::kernel::KERNEL_REVISION;
    use e2lsh_storage::build::{build_index, BuildConfig, FORMAT_VERSION};
    let path = dir.join(format!(
        "{name}-n{}-g{}-f{FORMAT_VERSION}k{KERNEL_REVISION}.idx",
        data.len(),
        (gamma * 100.0).round() as u32
    ));
    let params = e2lsh_params_gamma(data, gamma);
    if !image_matches(&path, &params) {
        build_index(data, &params, &BuildConfig::default(), &path).expect("index build failed");
    }
    path
}

/// True when `path` opens as an index built for `want`.
fn image_matches(path: &std::path::Path, want: &E2lshParams) -> bool {
    use e2lsh_storage::device::sim::{Backing, DeviceProfile, SimStorage};
    let Ok(backing) = Backing::open(path) else {
        return false;
    };
    let mut dev = SimStorage::new(DeviceProfile::ESSD, 1, backing);
    e2lsh_storage::StorageIndex::open(&mut dev).is_ok_and(|index| {
        let got = index.params();
        (got.n, got.m, got.l, got.s) == (want.n, want.m, want.l, want.s)
            && (got.c, got.w, got.gamma) == (want.c, want.w, want.gamma)
            && got.radii == want.radii
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_loads_and_params_are_paper_shaped() {
        let w = workload_sized(DatasetId::Sift, 3000, 10);
        assert_eq!(w.data.len(), 3000);
        assert_eq!(w.gt.num_queries(), 10);
        // L = n^0.3: for 3000 that is ~11.
        assert!(w.params.l >= 8 && w.params.l <= 16, "L = {}", w.params.l);
        assert!(w.params.m >= 5, "m = {}", w.params.m);
        assert!(w.params.num_radii() >= 8, "r = {}", w.params.num_radii());
    }

    #[test]
    fn stale_cached_image_is_rebuilt_and_a_matching_one_reused() {
        let dir = e2lsh_storage::testutil::temp_path("prep-cache");
        std::fs::create_dir_all(&dir).unwrap();
        let NamedDataset { data, .. } = suite::load_sized(DatasetId::Sift, 600, 1);
        let params = e2lsh_params_gamma(&data, 1.0);

        let path = ensure_disk_index_in(&dir, "sift", &data, 1.0);
        let name = path.file_name().unwrap().to_str().unwrap();
        assert!(
            name.contains(&format!("-f{}k", e2lsh_storage::build::FORMAT_VERSION))
                && name.ends_with(".idx"),
            "{name} must carry the format version and the kernel revision"
        );
        assert!(image_matches(&path, &params));

        // Same name, other parameters (what an older binary would have
        // left behind): rebuilt for this binary's parameters.
        let other = e2lsh_params_gamma(&data, 0.7);
        e2lsh_storage::build_index(&data, &other, &Default::default(), &path).unwrap();
        assert!(!image_matches(&path, &params), "planted image differs");
        assert_eq!(ensure_disk_index_in(&dir, "sift", &data, 1.0), path);
        assert!(image_matches(&path, &params), "mismatching image rebuilt");

        // Not an index at all: rebuilt, not queried.
        std::fs::write(&path, b"not an index").unwrap();
        ensure_disk_index_in(&dir, "sift", &data, 1.0);
        assert!(image_matches(&path, &params), "garbage rebuilt");

        // The right parameters in the previous format (refused at open
        // with a typed error): rebuilt as well.
        let mut image = std::fs::read(&path).unwrap();
        image[7] -= 1;
        std::fs::write(&path, image).unwrap();
        assert!(!image_matches(&path, &params), "format 1 must not open");
        ensure_disk_index_in(&dir, "sift", &data, 1.0);
        assert!(image_matches(&path, &params), "previous format rebuilt");

        // A matching image is left alone (a rebuild would rewrite it).
        let stamp = |p: &std::path::Path| std::fs::metadata(p).unwrap().modified().unwrap();
        let before = stamp(&path);
        std::thread::sleep(std::time::Duration::from_millis(20));
        ensure_disk_index_in(&dir, "sift", &data, 1.0);
        assert_eq!(stamp(&path), before, "matching image reused");
        std::fs::remove_dir_all(&dir).ok();
    }
}
