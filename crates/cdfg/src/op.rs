//! Operation kinds carried by CDFG nodes.

use std::fmt;

/// The operation performed by a CDFG node.
///
/// The arithmetic, logical and comparison variants map directly to functions
/// in the behavioral description (the paper's `ADD`, `MULTIPLY`, `LESS THAN`,
/// `EQUAL TO`, `AND` examples). `Select` and `EndLoop` are the structural
/// nodes used to merge conditional branches and terminate loops; `Mov` models
/// a plain register transfer (an assignment that needs no functional unit);
/// `Output` commits a value to a primary output.
///
/// ```
/// use impact_cdfg::{OpClass, Operation};
/// assert_eq!(Operation::Add.class(), OpClass::AddSub);
/// assert!(Operation::Select.is_structural());
/// assert_eq!(Operation::Mul.arity(), 2);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Operation {
    /// Two's-complement addition.
    Add,
    /// Two's-complement subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Integer division (quotient).
    Div,
    /// Integer remainder.
    Rem,
    /// Arithmetic negation.
    Neg,
    /// Bitwise/logical AND.
    And,
    /// Bitwise/logical OR.
    Or,
    /// Bitwise/logical XOR.
    Xor,
    /// Logical NOT (non-zero becomes 0, zero becomes 1).
    Not,
    /// Equality comparison, producing 0 or 1.
    Eq,
    /// Inequality comparison, producing 0 or 1.
    Ne,
    /// Less-than comparison, producing 0 or 1.
    Lt,
    /// Less-or-equal comparison, producing 0 or 1.
    Le,
    /// Greater-than comparison, producing 0 or 1.
    Gt,
    /// Greater-or-equal comparison, producing 0 or 1.
    Ge,
    /// Left shift by a constant or variable amount.
    Shl,
    /// Arithmetic right shift by a constant or variable amount.
    Shr,
    /// Register transfer (plain assignment); consumes no functional unit.
    Mov,
    /// Branch merge (the paper's `Sel` node): selects between the value
    /// produced on the taken and not-taken side of a conditional.
    Select,
    /// Loop terminator (the paper's `Elp` node): passes loop live-out values
    /// to nodes outside the loop body.
    EndLoop,
    /// Commit a value to a primary output port.
    Output,
}

/// Functional-unit class an operation is executed on.
///
/// Operations of the same class can share a functional unit (the paper's
/// "resource sharing may only occur between two similar operations").
/// Structural operations need no functional unit at all.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum OpClass {
    /// Adders/subtractors.
    AddSub,
    /// Multipliers.
    Mul,
    /// Dividers.
    Div,
    /// Comparators (relational and equality operators).
    Compare,
    /// Bitwise/logic units.
    Logic,
    /// Barrel shifters.
    Shift,
    /// No functional unit required (`Mov`, `Select`, `EndLoop`, `Output`).
    None,
}

impl Operation {
    /// All operation variants, useful for exhaustive iteration in tests and
    /// library characterization.
    pub const ALL: [Operation; 22] = [
        Operation::Add,
        Operation::Sub,
        Operation::Mul,
        Operation::Div,
        Operation::Rem,
        Operation::Neg,
        Operation::And,
        Operation::Or,
        Operation::Xor,
        Operation::Not,
        Operation::Eq,
        Operation::Ne,
        Operation::Lt,
        Operation::Le,
        Operation::Gt,
        Operation::Ge,
        Operation::Shl,
        Operation::Shr,
        Operation::Mov,
        Operation::Select,
        Operation::EndLoop,
        Operation::Output,
    ];

    /// Returns the functional-unit class this operation executes on.
    pub fn class(self) -> OpClass {
        match self {
            Operation::Add | Operation::Sub | Operation::Neg => OpClass::AddSub,
            Operation::Mul => OpClass::Mul,
            Operation::Div | Operation::Rem => OpClass::Div,
            Operation::Eq
            | Operation::Ne
            | Operation::Lt
            | Operation::Le
            | Operation::Gt
            | Operation::Ge => OpClass::Compare,
            Operation::And | Operation::Or | Operation::Xor | Operation::Not => OpClass::Logic,
            Operation::Shl | Operation::Shr => OpClass::Shift,
            Operation::Mov | Operation::Select | Operation::EndLoop | Operation::Output => {
                OpClass::None
            }
        }
    }

    /// Returns the number of data input ports the operation expects.
    pub fn arity(self) -> usize {
        match self {
            Operation::Neg | Operation::Not | Operation::Mov | Operation::Output => 1,
            Operation::EndLoop => 1,
            Operation::Select => 2,
            _ => 2,
        }
    }

    /// Returns `true` for structural nodes (`Select`, `EndLoop`) that exist to
    /// represent control structure rather than computation.
    pub fn is_structural(self) -> bool {
        matches!(self, Operation::Select | Operation::EndLoop)
    }

    /// Returns `true` if the operation produces a Boolean (0/1) result.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            Operation::Eq
                | Operation::Ne
                | Operation::Lt
                | Operation::Le
                | Operation::Gt
                | Operation::Ge
        )
    }

    /// Returns `true` if the operation requires a functional unit.
    pub fn needs_functional_unit(self) -> bool {
        self.class() != OpClass::None
    }

    /// Evaluates the operation on concrete operand values.
    ///
    /// Division and remainder by zero saturate to zero rather than trapping,
    /// mirroring a hardware divider that flags the error separately.
    ///
    /// # Panics
    ///
    /// Panics if the number of operands does not match [`Operation::arity`]
    /// (for `Select`, the second operand is the not-taken value and a third
    /// operand — the condition — is accepted).
    pub fn evaluate(self, operands: &[i64]) -> i64 {
        let bin = |f: fn(i64, i64) -> i64| {
            assert!(operands.len() >= 2, "binary operation needs two operands");
            f(operands[0], operands[1])
        };
        match self {
            Operation::Add => bin(|a, b| a.wrapping_add(b)),
            Operation::Sub => bin(|a, b| a.wrapping_sub(b)),
            Operation::Mul => bin(|a, b| a.wrapping_mul(b)),
            Operation::Div => bin(|a, b| if b == 0 { 0 } else { a.wrapping_div(b) }),
            Operation::Rem => bin(|a, b| if b == 0 { 0 } else { a.wrapping_rem(b) }),
            Operation::Neg => {
                assert!(!operands.is_empty(), "unary operation needs one operand");
                operands[0].wrapping_neg()
            }
            Operation::And => bin(|a, b| a & b),
            Operation::Or => bin(|a, b| a | b),
            Operation::Xor => bin(|a, b| a ^ b),
            Operation::Not => {
                assert!(!operands.is_empty(), "unary operation needs one operand");
                i64::from(operands[0] == 0)
            }
            Operation::Eq => bin(|a, b| i64::from(a == b)),
            Operation::Ne => bin(|a, b| i64::from(a != b)),
            Operation::Lt => bin(|a, b| i64::from(a < b)),
            Operation::Le => bin(|a, b| i64::from(a <= b)),
            Operation::Gt => bin(|a, b| i64::from(a > b)),
            Operation::Ge => bin(|a, b| i64::from(a >= b)),
            Operation::Shl => bin(|a, b| a.wrapping_shl(b.clamp(0, 63) as u32)),
            Operation::Shr => bin(|a, b| a.wrapping_shr(b.clamp(0, 63) as u32)),
            Operation::Mov | Operation::Output | Operation::EndLoop => {
                assert!(!operands.is_empty(), "move needs one operand");
                operands[0]
            }
            Operation::Select => {
                assert!(
                    operands.len() >= 3,
                    "select needs taken value, not-taken value and condition"
                );
                if operands[2] != 0 {
                    operands[0]
                } else {
                    operands[1]
                }
            }
        }
    }

    /// Short mnemonic used in DOT dumps and schedules (e.g. `+`, `*`, `<`).
    pub fn mnemonic(self) -> &'static str {
        match self {
            Operation::Add => "+",
            Operation::Sub => "-",
            Operation::Mul => "*",
            Operation::Div => "/",
            Operation::Rem => "%",
            Operation::Neg => "neg",
            Operation::And => "&&",
            Operation::Or => "||",
            Operation::Xor => "^",
            Operation::Not => "!",
            Operation::Eq => "==",
            Operation::Ne => "!=",
            Operation::Lt => "<",
            Operation::Le => "<=",
            Operation::Gt => ">",
            Operation::Ge => ">=",
            Operation::Shl => "<<",
            Operation::Shr => ">>",
            Operation::Mov => "mov",
            Operation::Select => "Sel",
            Operation::EndLoop => "Elp",
            Operation::Output => "out",
        }
    }
}

impl fmt::Display for Operation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            OpClass::AddSub => "add/sub",
            OpClass::Mul => "mul",
            OpClass::Div => "div",
            OpClass::Compare => "cmp",
            OpClass::Logic => "logic",
            OpClass::Shift => "shift",
            OpClass::None => "none",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_group_similar_operations() {
        assert_eq!(Operation::Add.class(), OpClass::AddSub);
        assert_eq!(Operation::Sub.class(), OpClass::AddSub);
        assert_eq!(Operation::Mul.class(), OpClass::Mul);
        assert_eq!(Operation::Lt.class(), OpClass::Compare);
        assert_eq!(Operation::And.class(), OpClass::Logic);
        assert_eq!(Operation::Select.class(), OpClass::None);
    }

    #[test]
    fn structural_nodes_need_no_functional_unit() {
        assert!(!Operation::Select.needs_functional_unit());
        assert!(!Operation::EndLoop.needs_functional_unit());
        assert!(!Operation::Mov.needs_functional_unit());
        assert!(Operation::Add.needs_functional_unit());
    }

    #[test]
    fn arithmetic_evaluation() {
        assert_eq!(Operation::Add.evaluate(&[3, 4]), 7);
        assert_eq!(Operation::Sub.evaluate(&[3, 4]), -1);
        assert_eq!(Operation::Mul.evaluate(&[3, 4]), 12);
        assert_eq!(Operation::Div.evaluate(&[12, 4]), 3);
        assert_eq!(Operation::Rem.evaluate(&[13, 4]), 1);
        assert_eq!(Operation::Neg.evaluate(&[5]), -5);
    }

    #[test]
    fn division_by_zero_saturates_to_zero() {
        assert_eq!(Operation::Div.evaluate(&[12, 0]), 0);
        assert_eq!(Operation::Rem.evaluate(&[12, 0]), 0);
    }

    #[test]
    fn comparisons_produce_booleans() {
        assert_eq!(Operation::Lt.evaluate(&[1, 2]), 1);
        assert_eq!(Operation::Lt.evaluate(&[2, 1]), 0);
        assert_eq!(Operation::Eq.evaluate(&[5, 5]), 1);
        assert_eq!(Operation::Ge.evaluate(&[5, 5]), 1);
        assert_eq!(Operation::Ne.evaluate(&[5, 5]), 0);
    }

    #[test]
    fn logic_operations() {
        assert_eq!(Operation::And.evaluate(&[0b1100, 0b1010]), 0b1000);
        assert_eq!(Operation::Or.evaluate(&[0b1100, 0b1010]), 0b1110);
        assert_eq!(Operation::Xor.evaluate(&[0b1100, 0b1010]), 0b0110);
        assert_eq!(Operation::Not.evaluate(&[0]), 1);
        assert_eq!(Operation::Not.evaluate(&[7]), 0);
    }

    #[test]
    fn select_picks_by_condition() {
        assert_eq!(Operation::Select.evaluate(&[10, 20, 1]), 10);
        assert_eq!(Operation::Select.evaluate(&[10, 20, 0]), 20);
    }

    #[test]
    fn shifts_clamp_their_amount() {
        assert_eq!(Operation::Shl.evaluate(&[1, 3]), 8);
        assert_eq!(Operation::Shr.evaluate(&[8, 3]), 1);
        assert_eq!(Operation::Shl.evaluate(&[1, 1000]), 1i64.wrapping_shl(63));
    }

    #[test]
    fn wrapping_arithmetic_does_not_panic() {
        assert_eq!(Operation::Add.evaluate(&[i64::MAX, 1]), i64::MIN);
        assert_eq!(Operation::Mul.evaluate(&[i64::MAX, 2]), -2);
    }

    #[test]
    fn mnemonics_are_unique_for_computational_ops() {
        use std::collections::HashSet;
        let set: HashSet<_> = Operation::ALL.iter().map(|o| o.mnemonic()).collect();
        assert_eq!(set.len(), Operation::ALL.len());
    }

    #[test]
    fn display_uses_mnemonic() {
        assert_eq!(Operation::Add.to_string(), "+");
        assert_eq!(OpClass::AddSub.to_string(), "add/sub");
    }
}
