//! Runtime values with bit-precise semantics.
//!
//! Fault injection and the XOR-checksum detector both operate on the **bit
//! pattern** of a value, so every value exposes a lossless 32-bit encoding
//! ([`Value::to_bits`] / [`Value::from_bits`]) and an XOR-mask mutation
//! ([`Value::xor_bits`]) that is exactly the paper's single/multi-bit error
//! model (§VII: "the fault injection uses, for example, a logical XOR
//! operation").

use crate::types::{DataClass, MemSpace, PrimTy, Ty};
use std::fmt;

/// A device pointer value: a byte address into one memory space.
///
/// Addresses are 32-bit, like the GT200-generation devices the paper
/// evaluates; a bit-flip in a pointer therefore perturbs a 32-bit address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PtrVal {
    /// Memory space this pointer refers to.
    pub space: MemSpace,
    /// Byte address within the space.
    pub addr: u32,
    /// Element type pointed to (drives load/store reinterpretation).
    pub elem: PrimTy,
}

impl PtrVal {
    /// A null global pointer to `elem` data.
    pub const fn null(elem: PrimTy) -> Self {
        PtrVal {
            space: MemSpace::Global,
            addr: 0,
            elem,
        }
    }

    /// The address `self.addr + index * elem_size` (wrapping, like device
    /// address arithmetic).
    pub fn offset_elems(self, index: i64) -> Self {
        let delta = index.wrapping_mul(self.elem.size_bytes() as i64);
        PtrVal {
            addr: (self.addr as i64).wrapping_add(delta) as u32,
            ..self
        }
    }
}

/// A runtime scalar value.
///
/// `f32` payloads are compared **bitwise** (via [`Value::to_bits`]) in
/// `PartialEq`, so `NaN == NaN` holds for identical bit patterns and
/// `-0.0 != +0.0`. This is deliberate: golden-run comparison and duplication
/// checks in a fault-injection study must be deterministic and bit-exact.
#[derive(Debug, Clone, Copy)]
pub enum Value {
    /// Single-precision float.
    F32(f32),
    /// Signed 32-bit integer.
    I32(i32),
    /// Unsigned 32-bit integer.
    U32(u32),
    /// Boolean.
    Bool(bool),
    /// Typed device pointer.
    Ptr(PtrVal),
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Ptr(a), Value::Ptr(b)) => a == b,
            (a, b) => {
                std::mem::discriminant(a) == std::mem::discriminant(b) && a.to_bits() == b.to_bits()
            }
        }
    }
}

impl Eq for Value {}

impl Value {
    /// The static type of this value. Pointer element/space information is
    /// preserved.
    pub fn ty(&self) -> Ty {
        match self {
            Value::F32(_) => Ty::F32,
            Value::I32(_) => Ty::I32,
            Value::U32(_) => Ty::U32,
            Value::Bool(_) => Ty::BOOL,
            Value::Ptr(p) => Ty::Ptr {
                space: p.space,
                elem: p.elem,
            },
        }
    }

    /// The paper's pointer/integer/FP classification of this value.
    pub fn data_class(&self) -> DataClass {
        self.ty().data_class()
    }

    /// The zero value of a type (device registers start zeroed in the
    /// simulator, like freshly allocated CUDA local state in practice).
    pub fn zero_of(ty: Ty) -> Value {
        match ty {
            Ty::Prim(PrimTy::F32) => Value::F32(0.0),
            Ty::Prim(PrimTy::I32) => Value::I32(0),
            Ty::Prim(PrimTy::U32) => Value::U32(0),
            Ty::Prim(PrimTy::Bool) => Value::Bool(false),
            Ty::Ptr { space, elem } => Value::Ptr(PtrVal {
                space,
                addr: 0,
                elem,
            }),
        }
    }

    /// Lossless 32-bit encoding of the value (IEEE bits for `f32`, two's
    /// complement for `i32`, `0`/`1` for `bool`, the address for pointers).
    #[inline]
    pub fn to_bits(&self) -> u32 {
        match self {
            Value::F32(v) => v.to_bits(),
            Value::I32(v) => *v as u32,
            Value::U32(v) => *v,
            Value::Bool(v) => *v as u32,
            Value::Ptr(p) => p.addr,
        }
    }

    /// Rebuild a value of primitive type `ty` from its 32-bit encoding.
    #[inline]
    pub fn from_bits(ty: PrimTy, bits: u32) -> Value {
        match ty {
            PrimTy::F32 => Value::F32(f32::from_bits(bits)),
            PrimTy::I32 => Value::I32(bits as i32),
            PrimTy::U32 => Value::U32(bits),
            PrimTy::Bool => Value::Bool(bits & 1 != 0),
        }
    }

    /// Apply an XOR error mask to the value's bit pattern, preserving its
    /// type. This is the architecture-state corruption primitive of the
    /// SWIFI toolset (§VII).
    #[must_use]
    pub fn xor_bits(&self, mask: u32) -> Value {
        match self {
            Value::F32(v) => Value::F32(f32::from_bits(v.to_bits() ^ mask)),
            Value::I32(v) => Value::I32(((*v as u32) ^ mask) as i32),
            Value::U32(v) => Value::U32(v ^ mask),
            // A corrupted boolean flips if any masked bit covers bit 0;
            // higher bits of a register holding a bool are ignored by uses.
            Value::Bool(v) => Value::Bool(((*v as u32) ^ mask) & 1 != 0),
            Value::Ptr(p) => Value::Ptr(PtrVal {
                addr: p.addr ^ mask,
                ..*p
            }),
        }
    }

    /// Interpret as `f32`, if the value is one.
    pub fn as_f32(&self) -> Option<f32> {
        match self {
            Value::F32(v) => Some(*v),
            _ => None,
        }
    }

    /// Interpret as `i32`, if the value is one.
    pub fn as_i32(&self) -> Option<i32> {
        match self {
            Value::I32(v) => Some(*v),
            _ => None,
        }
    }

    /// Interpret as `u32`, if the value is one.
    pub fn as_u32(&self) -> Option<u32> {
        match self {
            Value::U32(v) => Some(*v),
            _ => None,
        }
    }

    /// Interpret as `bool`, if the value is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// Interpret as a pointer, if the value is one.
    pub fn as_ptr(&self) -> Option<PtrVal> {
        match self {
            Value::Ptr(p) => Some(*p),
            _ => None,
        }
    }

    /// Numeric value as `f64` for statistics/accumulation purposes
    /// (pointers yield their address).
    #[inline]
    pub fn as_numeric_f64(&self) -> f64 {
        match self {
            Value::F32(v) => *v as f64,
            Value::I32(v) => *v as f64,
            Value::U32(v) => *v as f64,
            Value::Bool(v) => *v as u32 as f64,
            Value::Ptr(p) => p.addr as f64,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::F32(v) => {
                // Always keep a decimal point so the printer/parser round-trips.
                if v.fract() == 0.0 && v.is_finite() && v.abs() < 1e16 {
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v:?}")
                }
            }
            Value::I32(v) => write!(f, "{v}"),
            Value::U32(v) => write!(f, "{v}u"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Ptr(p) => write!(f, "ptr({}, {:#x})", p.space, p.addr),
        }
    }
}

impl From<f32> for Value {
    fn from(v: f32) -> Self {
        Value::F32(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::I32(v)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U32(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_round_trip_all_prims() {
        for (ty, v) in [
            (PrimTy::F32, Value::F32(-3.25)),
            (PrimTy::I32, Value::I32(-7)),
            (PrimTy::U32, Value::U32(0xDEAD_BEEF)),
            (PrimTy::Bool, Value::Bool(true)),
        ] {
            assert_eq!(Value::from_bits(ty, v.to_bits()), v);
        }
    }

    #[test]
    fn xor_is_involutive() {
        let masks = [1u32, 0x8000_0000, 0x0F0F_0F0F, u32::MAX];
        let vals = [
            Value::F32(1.5),
            Value::I32(-42),
            Value::U32(7),
            Value::Ptr(PtrVal {
                space: MemSpace::Global,
                addr: 0x100,
                elem: PrimTy::F32,
            }),
        ];
        for v in vals {
            for m in masks {
                assert_eq!(v.xor_bits(m).xor_bits(m), v, "v={v:?} m={m:#x}");
            }
        }
    }

    #[test]
    fn nan_bit_patterns_compare_equal() {
        let nan = f32::from_bits(0x7FC0_0001);
        assert_eq!(Value::F32(nan), Value::F32(nan));
        assert_ne!(Value::F32(0.0), Value::F32(-0.0));
    }

    #[test]
    fn xor_high_bit_of_f32_flips_sign() {
        let v = Value::F32(2.0).xor_bits(0x8000_0000);
        assert_eq!(v, Value::F32(-2.0));
    }

    #[test]
    fn bool_xor_only_observes_bit0() {
        assert_eq!(Value::Bool(false).xor_bits(0b10), Value::Bool(false));
        assert_eq!(Value::Bool(false).xor_bits(0b11), Value::Bool(true));
    }

    #[test]
    fn ptr_offset_elems() {
        let p = PtrVal {
            space: MemSpace::Global,
            addr: 16,
            elem: PrimTy::F32,
        };
        assert_eq!(p.offset_elems(3).addr, 28);
        assert_eq!(p.offset_elems(-2).addr, 8);
    }

    #[test]
    fn zero_values_match_types() {
        assert_eq!(Value::zero_of(Ty::F32), Value::F32(0.0));
        let z = Value::zero_of(Ty::global_ptr(PrimTy::I32));
        assert_eq!(z.as_ptr().unwrap().addr, 0);
        assert_eq!(z.ty(), Ty::global_ptr(PrimTy::I32));
    }

    #[test]
    fn type_mismatched_values_never_equal() {
        // i32 0 and u32 0 share bit patterns but differ in type.
        assert_ne!(Value::I32(0), Value::U32(0));
    }
}
