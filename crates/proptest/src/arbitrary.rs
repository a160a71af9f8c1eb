//! `any::<T>()` — full-domain strategies for primitive types.

use std::marker::PhantomData;

use rand::rngs::StdRng;
use rand::Rng;

use crate::strategy::Strategy;

/// Types with a canonical full-domain strategy.
pub trait Arbitrary: Sized {
    fn generate(rng: &mut StdRng) -> Self;
}

/// Strategy over the full domain of `T`, as returned by [`any`].
pub struct Any<T>(PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn new_value(&self, rng: &mut StdRng) -> Result<T, String> {
        Ok(T::generate(rng))
    }
}

/// The canonical strategy for `T`'s entire value domain.
#[must_use]
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

impl Arbitrary for bool {
    fn generate(rng: &mut StdRng) -> Self {
        rng.random()
    }
}

impl Arbitrary for u64 {
    fn generate(rng: &mut StdRng) -> Self {
        rng.random()
    }
}

macro_rules! impl_arbitrary_via_u64 {
    ($($t:ty),* $(,)?) => {$(
        impl Arbitrary for $t {
            fn generate(rng: &mut StdRng) -> Self {
                rng.random::<u64>() as $t
            }
        }
    )*};
}

impl_arbitrary_via_u64!(u8, u16, u32, usize, i8, i16, i32, i64, isize);

impl Arbitrary for f64 {
    fn generate(rng: &mut StdRng) -> Self {
        // Finite values, uniform in sign and magnitude order.
        let mantissa: f64 = rng.random();
        let exponent: i32 = rng.random_range(-64..64);
        let sign = if rng.random::<bool>() { 1.0 } else { -1.0 };
        sign * mantissa * 2.0_f64.powi(exponent)
    }
}
