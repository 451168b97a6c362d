pub fn only_in_tests() -> u32 {
    2
}
