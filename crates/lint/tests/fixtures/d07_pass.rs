//! D07 fixture — every way a declaration stays clear of the rule:
//! `used_by_the_other_file` is named in `d07_user.rs`, a narrowed item
//! is not public surface, a test-module item is a root, and an API kept
//! on purpose carries its reason.

pub fn used_by_the_other_file() -> u32 {
    crate_local() + 1
}

pub(crate) fn crate_local() -> u32 {
    1
}

// det-allow(D07): the documented extension seam; no in-tree caller yet
pub trait KeptOnPurpose {}

#[cfg(test)]
mod tests {
    pub fn test_only_helper() {}
}
