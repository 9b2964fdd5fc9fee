//! D07 fixture — the other file: naming an item here is what makes it
//! used surface in `d07_pass.rs`.

fn caller() -> u32 {
    used_by_the_other_file()
}
