pub fn one() -> u32 {
    1
}

#[cfg(test)]
mod inner;

#[cfg(test)] use std::fmt;

pub struct Two;

#[cfg(test)]
mod tests {
    #[test]
    fn one_is_one() {
        assert_eq!(super::one(), 1);
    }
}
