//! Fixture for `bench::count_loc`: five non-test lines here, four in
//! `plain.rs`, and every test item and test-only file skipped.

pub mod plain;

#[cfg(test)]
mod tests;

#[cfg(test)]
#[path = "other_tests.rs"]
mod other;

pub fn live() -> u32 {
    // A comment line.
    7
}

#[cfg(test)]
fn helper<'a>(s: &'a str) -> (char, &'a str) {
    let _ = ('}', '\'', "\"}");
    (s.chars().next().unwrap_or('{'), "}{ // }")
}

pub const AFTER: u32 = 1;
