//! The PIR type system: scalars, typed pointers, and field-addressable
//! structs.
//!
//! Struct fields are what gives DeepMC its *field sensitivity*: the DSA/DSG
//! tracks points-to and mod/ref information per field (paper §4.2), and the
//! performance-bug rules distinguish flushing one modified field from
//! flushing the whole object (paper Fig. 5).

use serde::{Deserialize, Serialize};
use std::fmt;

/// Index of a struct definition within a [`crate::Module`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct StructId(pub u32);

impl StructId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A PIR type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Ty {
    /// 64-bit signed integer — the only scalar; booleans are 0/1.
    I64,
    /// Pointer to a struct allocated in persistent or volatile memory.
    Ptr(StructId),
    /// Fixed-size array of scalars, only legal as a struct field.
    Array(u32),
}

impl Ty {
    /// True for pointer types.
    pub fn is_ptr(&self) -> bool {
        matches!(self, Ty::Ptr(_))
    }

    /// The pointee struct, if this is a pointer.
    pub fn pointee(&self) -> Option<StructId> {
        match self {
            Ty::Ptr(s) => Some(*s),
            _ => None,
        }
    }

    /// Size in bytes when laid out in the simulated NVM pool.
    /// Scalars and pointers are 8 bytes; arrays are 8 bytes per element.
    pub fn size_bytes(&self) -> u64 {
        match self {
            Ty::I64 | Ty::Ptr(_) => 8,
            Ty::Array(n) => 8 * (*n as u64),
        }
    }
}

/// One named field of a struct.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FieldDef {
    pub name: String,
    pub ty: Ty,
}

/// A struct definition. Objects of this type are allocated with `palloc`
/// (persistent) or `valloc` (volatile).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct StructDef {
    pub name: String,
    pub fields: Vec<FieldDef>,
}

impl StructDef {
    /// Look up a field index by name.
    pub fn field_index(&self, name: &str) -> Option<u32> {
        self.fields.iter().position(|f| f.name == name).map(|i| i as u32)
    }

    /// The field at `idx`, panicking on out-of-range (verifier guarantees
    /// indices are valid after [`crate::verify::verify_module`]).
    pub fn field(&self, idx: u32) -> &FieldDef {
        &self.fields[idx as usize]
    }

    /// Total object size in bytes in the simulated pool layout: fields are
    /// laid out in declaration order with no padding (everything is 8-byte).
    pub fn size_bytes(&self) -> u64 {
        self.fields.iter().map(|f| f.ty.size_bytes()).sum()
    }

    /// Byte offset of field `idx` in the object layout.
    pub fn field_offset(&self, idx: u32) -> u64 {
        self.fields[..idx as usize].iter().map(|f| f.ty.size_bytes()).sum()
    }
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ty::I64 => write!(f, "i64"),
            Ty::Ptr(s) => write!(f, "ptr#{}", s.0),
            Ty::Array(n) => write!(f, "[i64; {n}]"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node_struct() -> StructDef {
        StructDef {
            name: "node".into(),
            fields: vec![
                FieldDef { name: "n".into(), ty: Ty::I64 },
                FieldDef { name: "items".into(), ty: Ty::Array(4) },
                FieldDef { name: "next".into(), ty: Ty::Ptr(StructId(0)) },
            ],
        }
    }

    #[test]
    fn field_index_lookup() {
        let s = node_struct();
        assert_eq!(s.field_index("n"), Some(0));
        assert_eq!(s.field_index("items"), Some(1));
        assert_eq!(s.field_index("next"), Some(2));
        assert_eq!(s.field_index("missing"), None);
    }

    #[test]
    fn sizes_and_offsets() {
        let s = node_struct();
        assert_eq!(s.size_bytes(), 8 + 32 + 8);
        assert_eq!(s.field_offset(0), 0);
        assert_eq!(s.field_offset(1), 8);
        assert_eq!(s.field_offset(2), 40);
    }

    #[test]
    fn ty_predicates() {
        assert!(Ty::Ptr(StructId(3)).is_ptr());
        assert_eq!(Ty::Ptr(StructId(3)).pointee(), Some(StructId(3)));
        assert!(!Ty::I64.is_ptr());
        assert_eq!(Ty::Array(5).size_bytes(), 40);
    }
}
