//! The scan-resistant policy against the replacement-order reference
//! model (`tests/spec/replacement.rs`): the same victim after every step
//! of a random sequence. (`libkern`'s `prop_libkern` does the same for the
//! three library policies.)

use db_kernel::Policy;

#[path = "../../../tests/spec/replacement.rs"]
mod replacement;

#[test]
fn scan_resistant_evicts_in_the_models_order() {
    replacement::assert_matches_model(|| Policy::ScanResistant.build());
}
