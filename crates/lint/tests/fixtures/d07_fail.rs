//! D07 fixture — a public item nothing outside this file names: the
//! only call sits in the file's own test module, so the item is public
//! surface with no user.

pub fn orphaned_helper() -> u32 {
    7
}

#[cfg(test)]
mod tests {
    #[test]
    fn exercises_only_the_orphan() {
        assert_eq!(super::orphaned_helper(), 7);
    }
}
