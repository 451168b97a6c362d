#[test]
fn live_is_seven() {
    assert_eq!(super::live(), 7);
}
