//! Signatures σ and the `SM(σ)` classification (paper §3).
//!
//! An std may use four navigation axes — child `↓` (always present),
//! descendant `↓*`, next-sibling `→`, following-sibling `→*` — plus the
//! comparisons `=` and `≠`. The paper writes `⇓ = {↓, ↓*}`, `⇒ = {→, →*}`,
//! `∼ = {=, ≠}` and studies classes like `SM(⇓)`, `SM(⇓,⇒)`, `SM(⇓,∼)`,
//! `SM(⇓,⇒,∼)`.

use std::fmt;

/// The feature set used by a mapping's stds.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct Signature {
    /// Descendant axis `↓*` (`//` in patterns).
    pub descendant: bool,
    /// Next-sibling axis `→`.
    pub next_sibling: bool,
    /// Following-sibling axis `→*`.
    pub following_sibling: bool,
    /// Equality: explicit `α₌` conditions or variable reuse.
    pub eq: bool,
    /// Inequality: explicit `α≠` conditions.
    pub neq: bool,
    /// Wildcard label tests (`_`) — tracked because wildcard breaks
    /// composition closure (Prop 8.1) even though it is not part of σ.
    pub wildcard: bool,
}

impl Signature {
    /// The minimal signature: child axis only (`SM(↓)` ⊆ `SM(⇓)`).
    pub const CHILD_ONLY: Signature = Signature {
        descendant: false,
        next_sibling: false,
        following_sibling: false,
        eq: false,
        neq: false,
        wildcard: false,
    };

    /// Vertical navigation only (`⇓`)?
    pub fn is_downward(&self) -> bool {
        !self.next_sibling && !self.following_sibling
    }

    /// Any horizontal navigation (`⇒` or a part of it)?
    pub fn has_horizontal(&self) -> bool {
        self.next_sibling || self.following_sibling
    }

    /// Any data comparison (`∼` or a part of it)?
    pub fn has_data_comparison(&self) -> bool {
        self.eq || self.neq
    }

    /// Union of two signatures.
    pub fn union(self, other: Signature) -> Signature {
        Signature {
            descendant: self.descendant || other.descendant,
            next_sibling: self.next_sibling || other.next_sibling,
            following_sibling: self.following_sibling || other.following_sibling,
            eq: self.eq || other.eq,
            neq: self.neq || other.neq,
            wildcard: self.wildcard || other.wildcard,
        }
    }
}

impl fmt::Display for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Render in the paper's grouped notation.
        let mut parts: Vec<&str> = Vec::new();
        match self.descendant {
            true => parts.push("⇓"),
            false => parts.push("↓"),
        }
        match (self.next_sibling, self.following_sibling) {
            (true, true) => parts.push("⇒"),
            (true, false) => parts.push("→"),
            (false, true) => parts.push("→*"),
            (false, false) => {}
        }
        match (self.eq, self.neq) {
            (true, true) => parts.push("~"),
            (true, false) => parts.push("="),
            (false, true) => parts.push("≠"),
            (false, false) => {}
        }
        write!(f, "SM({})", parts.join(","))?;
        if self.wildcard {
            write!(f, "[_]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(Signature::CHILD_ONLY.to_string(), "SM(↓)");
        let full = Signature {
            descendant: true,
            next_sibling: true,
            following_sibling: true,
            eq: true,
            neq: true,
            wildcard: false,
        };
        assert_eq!(full.to_string(), "SM(⇓,⇒,~)");
        let mixed = Signature {
            descendant: true,
            next_sibling: true,
            following_sibling: false,
            eq: false,
            neq: true,
            wildcard: true,
        };
        assert_eq!(mixed.to_string(), "SM(⇓,→,≠)[_]");
    }

    #[test]
    fn predicates_and_union() {
        let a = Signature {
            descendant: true,
            ..Signature::CHILD_ONLY
        };
        let b = Signature {
            next_sibling: true,
            eq: true,
            ..Signature::CHILD_ONLY
        };
        assert!(a.is_downward());
        assert!(!b.is_downward());
        assert!(!a.has_data_comparison());
        assert!(b.has_data_comparison());
        let u = a.union(b);
        assert!(u.descendant && u.next_sibling && u.eq && !u.neq);
    }
}
