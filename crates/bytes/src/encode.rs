//! The [`Encode`]/[`Decode`] trait pair: each type states its byte format
//! once, beside its definition, and the journal and the wire both use it.
//!
//! Scalars and containers are covered by the generic impls here; plain
//! structs and tagged enums by [`codec_struct!`](crate::codec_struct) and
//! [`codec_enum!`](crate::codec_enum), which are `macro_rules!` stand-ins for
//! a serde derive. Types whose format is not "the fields in order" (a backend
//! stored as its spec text, say) write the two impls by hand.

use std::collections::{BTreeMap, VecDeque};

use crate::codec::{ByteReader, ByteWriter, CodecError};

/// A value with a byte format. Encoding never fails.
///
/// Every impl writes at least one byte: sequence decoding relies on that to
/// bound its work by the bytes actually present.
pub trait Encode {
    /// Append this value's bytes to `w`.
    fn encode(&self, w: &mut ByteWriter);
}

/// The inverse of [`Encode`]: read one value off the front of a reader.
pub trait Decode: Sized {
    /// Decode one value, consuming exactly the bytes [`Encode`] wrote.
    ///
    /// # Errors
    ///
    /// Every malformed input maps to a typed [`CodecError`]; impls never
    /// panic and never allocate more than the remaining input justifies.
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError>;
}

/// Encode one value into a fresh buffer.
pub fn to_bytes<T: Encode + ?Sized>(value: &T) -> Vec<u8> {
    let mut w = ByteWriter::new();
    value.encode(&mut w);
    w.into_bytes()
}

/// Decode one value that must span `bytes` exactly.
///
/// # Errors
///
/// As [`Decode::decode`], plus [`CodecError::TrailingBytes`] when bytes are
/// left over.
pub fn from_bytes<T: Decode>(bytes: &[u8]) -> Result<T, CodecError> {
    let mut r = ByteReader::new(bytes);
    let value = T::decode(&mut r)?;
    r.finish()?;
    Ok(value)
}

macro_rules! scalar_codec {
    ($($ty:ty => $put:ident, $take:ident;)*) => {$(
        impl Encode for $ty {
            fn encode(&self, w: &mut ByteWriter) {
                w.$put(*self);
            }
        }
        impl Decode for $ty {
            fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
                r.$take()
            }
        }
    )*};
}

scalar_codec! {
    u8 => put_u8, take_u8;
    u16 => put_u16, take_u16;
    u32 => put_u32, take_u32;
    u64 => put_u64, take_u64;
    usize => put_usize, take_usize;
    f64 => put_f64, take_f64;
    bool => put_bool, take_bool;
}

/// A `u32` that travels as a `u64`: the journal widened its attempt and
/// threshold counters when it was first written, and the format keeps that.
/// Name it in a derive as `field as Wide32`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Wide32(pub u32);

impl From<u32> for Wide32 {
    fn from(value: u32) -> Self {
        Wide32(value)
    }
}

impl From<Wide32> for u32 {
    fn from(value: Wide32) -> Self {
        value.0
    }
}

impl Encode for Wide32 {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(u64::from(self.0));
    }
}

impl Decode for Wide32 {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let wide = r.take_u64()?;
        u32::try_from(wide)
            .map(Wide32)
            .map_err(|_| CodecError::Malformed(format!("counter {wide} exceeds u32")))
    }
}

impl Encode for String {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_str(self);
    }
}

impl Decode for String {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        r.take_str()
    }
}

impl<T: Encode> Encode for Box<T> {
    fn encode(&self, w: &mut ByteWriter) {
        (**self).encode(w);
    }
}

impl<T: Decode> Decode for Box<T> {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        T::decode(r).map(Box::new)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            None => w.put_u8(0),
            Some(value) => {
                w.put_u8(1);
                value.encode(w);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        match r.take_u8()? {
            0 => Ok(None),
            1 => T::decode(r).map(Some),
            tag => Err(CodecError::InvalidTag {
                what: "Option",
                tag: u64::from(tag),
            }),
        }
    }
}

fn encode_seq<'a, T: Encode + 'a>(
    len: usize,
    items: impl Iterator<Item = &'a T>,
    w: &mut ByteWriter,
) {
    w.put_usize(len);
    for item in items {
        item.encode(w);
    }
}

impl<T: Encode> Encode for [T] {
    fn encode(&self, w: &mut ByteWriter) {
        encode_seq(self.len(), self.iter(), w);
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, w: &mut ByteWriter) {
        self.as_slice().encode(w);
    }
}

impl<T: Encode> Encode for VecDeque<T> {
    fn encode(&self, w: &mut ByteWriter) {
        encode_seq(self.len(), self.iter(), w);
    }
}

/// The one allocation rule for untrusted lengths: a declared length is
/// honoured for preallocation only up to the bytes left in the reader, since
/// every element costs at least one byte. A lying length then fails with
/// `UnexpectedEof` after at most that many elements.
impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let len = r.take_usize()?;
        let mut out = Vec::with_capacity(len.min(r.remaining()));
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Decode> Decode for VecDeque<T> {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Vec::decode(r).map(VecDeque::from)
    }
}

impl<K: Encode, V: Encode> Encode for BTreeMap<K, V> {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_usize(self.len());
        for (key, value) in self {
            key.encode(w);
            value.encode(w);
        }
    }
}

impl<K: Decode + Ord, V: Decode> Decode for BTreeMap<K, V> {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let len = r.take_usize()?;
        let mut out = BTreeMap::new();
        for _ in 0..len {
            let key = K::decode(r)?;
            out.insert(key, V::decode(r)?);
        }
        Ok(out)
    }
}

macro_rules! tuple_codec {
    ($($name:ident),+) => {
        impl<$($name: Encode),+> Encode for ($($name,)+) {
            fn encode(&self, w: &mut ByteWriter) {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                $($name.encode(w);)+
            }
        }
        impl<$($name: Decode),+> Decode for ($($name,)+) {
            fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
                Ok(($($name::decode(r)?,)+))
            }
        }
    };
}

tuple_codec!(A, B);
tuple_codec!(A, B, C);

/// Derive [`Encode`]/[`Decode`] for a plain struct: the listed fields, in
/// wire order. `field as Via` encodes `Via::from(field.clone())` and decodes
/// through `Via::decode(..)?.into()` — see [`Wide32`].
#[macro_export]
macro_rules! codec_struct {
    ($name:ident { $($field:ident $(as $via:ty)?),* $(,)? }) => {
        impl $crate::Encode for $name {
            fn encode(&self, w: &mut $crate::ByteWriter) {
                $( $crate::__encode_field!(w, self.$field $(, $via)?); )*
            }
        }
        impl $crate::Decode for $name {
            fn decode(
                r: &mut $crate::ByteReader<'_>,
            ) -> ::core::result::Result<Self, $crate::CodecError> {
                Ok(Self { $( $field: $crate::__decode_field!(r $(, $via)?), )* })
            }
        }
    };
}

/// Derive [`Encode`]/[`Decode`] for an enum: each variant is written as its
/// one-byte tag followed by its fields in the listed order. Variants may be
/// unit (`0 => Idle`), tuple (`1 => Named(name)`, the identifiers only name
/// the bindings) or struct-like (`2 => Open { until, tries as Wide32 }`). An
/// unknown tag decodes to [`CodecError::InvalidTag`](crate::CodecError).
#[macro_export]
macro_rules! codec_enum {
    ($name:ident { $(
        $tag:literal => $variant:ident
            $( { $($field:ident $(as $via:ty)?),* $(,)? } )?
            $( ( $($item:ident),* $(,)? ) )?
    ),* $(,)? }) => {
        impl $crate::Encode for $name {
            fn encode(&self, w: &mut $crate::ByteWriter) {
                match self {$(
                    Self::$variant $( { $($field),* } )? $( ( $($item),* ) )? => {
                        w.put_u8($tag);
                        $($( $crate::__encode_field!(w, *$field $(, $via)?); )*)?
                        $($( $crate::__encode_field!(w, *$item); )*)?
                    }
                )*}
            }
        }
        impl $crate::Decode for $name {
            fn decode(
                r: &mut $crate::ByteReader<'_>,
            ) -> ::core::result::Result<Self, $crate::CodecError> {
                Ok(match r.take_u8()? {
                    $(
                        $tag => Self::$variant
                            $( { $( $field: $crate::__decode_field!(r $(, $via)?) ),* } )?
                            $( ( $( $crate::__decode_field!(r; $item) ),* ) )?,
                    )*
                    tag => {
                        return Err($crate::CodecError::InvalidTag {
                            what: stringify!($name),
                            tag: u64::from(tag),
                        })
                    }
                })
            }
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __encode_field {
    ($w:ident, $value:expr) => {
        $crate::Encode::encode(&$value, $w)
    };
    ($w:ident, $value:expr, $via:ty) => {
        $crate::Encode::encode(&<$via>::from($value.clone()), $w)
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __decode_field {
    ($r:ident) => {
        $crate::Decode::decode($r)?
    };
    ($r:ident; $binding:ident) => {
        $crate::Decode::decode($r)?
    };
    ($r:ident, $via:ty) => {
        <$via as $crate::Decode>::decode($r)?.into()
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct Sample {
        name: String,
        tries: u32,
        depth: Option<usize>,
        edges: Vec<(usize, usize)>,
        labels: BTreeMap<String, f64>,
        recent: VecDeque<bool>,
        shape: Box<Shape>,
    }

    #[derive(Debug, Clone, PartialEq)]
    enum Shape {
        Idle,
        Named(String, u8),
        Open { until: u64, tries: u32 },
    }

    codec_struct!(Sample {
        name,
        tries as Wide32,
        depth,
        edges,
        labels,
        recent,
        shape,
    });
    codec_enum!(Shape {
        0 => Idle,
        1 => Named(name, level),
        4 => Open { until, tries as Wide32 },
    });

    fn sample() -> Sample {
        Sample {
            name: "ion-trap-α".into(),
            tries: 3,
            depth: Some(9),
            edges: vec![(0, 1), (1, 2)],
            labels: BTreeMap::from([("t1".to_string(), 80.5), ("t2".to_string(), -0.0)]),
            recent: VecDeque::from([true, false, true]),
            shape: Box::new(Shape::Open { until: 7, tries: 2 }),
        }
    }

    #[test]
    fn derived_codecs_round_trip_and_lay_fields_out_in_order() {
        let bytes = to_bytes(&sample());
        assert_eq!(from_bytes::<Sample>(&bytes).unwrap(), sample());

        let mut by_hand = ByteWriter::new();
        by_hand.put_str("ion-trap-α");
        by_hand.put_u64(3); // widened
        by_hand.put_u8(1);
        by_hand.put_usize(9);
        by_hand.put_usize(2);
        for n in [0usize, 1, 1, 2] {
            by_hand.put_usize(n);
        }
        by_hand.put_usize(2);
        by_hand.put_str("t1");
        by_hand.put_f64(80.5);
        by_hand.put_str("t2");
        by_hand.put_f64(-0.0);
        by_hand.put_usize(3);
        for flag in [true, false, true] {
            by_hand.put_bool(flag);
        }
        by_hand.put_u8(4);
        by_hand.put_u64(7);
        by_hand.put_u64(2);
        assert_eq!(bytes, by_hand.into_bytes());
    }

    #[test]
    fn every_variant_shape_round_trips() {
        for shape in [
            Shape::Idle,
            Shape::Named("n".into(), 5),
            Shape::Open { until: 1, tries: 0 },
        ] {
            assert_eq!(from_bytes::<Shape>(&to_bytes(&shape)).unwrap(), shape);
        }
        assert_eq!(to_bytes(&Shape::Idle), [0]);
    }

    #[test]
    fn bad_tags_and_out_of_range_counters_are_typed_errors() {
        assert_eq!(
            from_bytes::<Shape>(&[2]),
            Err(CodecError::InvalidTag {
                what: "Shape",
                tag: 2
            })
        );
        assert_eq!(
            from_bytes::<Option<u8>>(&[7, 0]),
            Err(CodecError::InvalidTag {
                what: "Option",
                tag: 7
            })
        );
        let too_wide = to_bytes(&(u64::from(u32::MAX) + 1));
        assert!(matches!(
            from_bytes::<Wide32>(&too_wide),
            Err(CodecError::Malformed(_))
        ));
        assert_eq!(
            from_bytes::<u8>(&[1, 2]),
            Err(CodecError::TrailingBytes { remaining: 1 })
        );
    }

    #[test]
    fn truncation_anywhere_is_a_typed_error() {
        let bytes = to_bytes(&sample());
        for cut in 0..bytes.len() {
            assert!(from_bytes::<Sample>(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn lying_lengths_allocate_no_more_than_the_input_holds() {
        // Claims u64::MAX / 2^40 elements, carries three bytes.
        for declared in [u64::MAX, 1 << 40] {
            let mut w = ByteWriter::new();
            w.put_u64(declared);
            w.put_raw(&[1, 1, 1]);
            let bytes = w.into_bytes();
            assert!(from_bytes::<Vec<u64>>(&bytes).is_err());
            assert!(from_bytes::<VecDeque<bool>>(&bytes).is_err());
            assert!(from_bytes::<BTreeMap<u8, u8>>(&bytes).is_err());
        }
    }
}
