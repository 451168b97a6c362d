#[test]
fn after_is_one() {
    assert_eq!(super::AFTER, 1);
}
