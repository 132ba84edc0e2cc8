//! Certain regions and the region finder (paper §2).

mod certify;
mod finder;
pub(crate) mod lattice;
mod tableau;
mod universe;

pub use certify::{
    certifies_for, certifies_for_with_plan, certify_region, certify_region_mode, masked_input,
    CertifyMode, CertifyResult,
};
pub use finder::{
    find_regions, find_regions_from_scratch, recheck_regions, search_regions, RegionFinderOptions,
    RegionSearch, RegionSearchResult, RegionSearchStats,
};
pub use tableau::Region;
pub use universe::{MasterRow, MasterTruth, MasterTruths, Universe};
