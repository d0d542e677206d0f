//! Error types for netlist construction.

use crate::netlist::PinRef;
use std::error::Error;
use std::fmt;

/// Error returned by connection methods on
/// [`NetlistBuilder`](crate::NetlistBuilder).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConnectError {
    /// The referenced gate id does not exist.
    UnknownGate {
        /// The invalid gate id.
        gate: u32,
    },
    /// The referenced primary input or output was never declared.
    UnknownPort {
        /// The invalid port id.
        port: u32,
        /// Whether the port was named as a primary output (else an input).
        output: bool,
    },
    /// The referenced input pin index exceeds the cell's input count.
    PinOutOfRange {
        /// The gate whose pin was referenced.
        gate: u32,
        /// The invalid pin index.
        pin: u8,
        /// The cell's actual input count.
        num_inputs: usize,
    },
    /// A wire cap named a pin that drives no net: a gate input or a
    /// primary output.
    NotADriver {
        /// The pin.
        pin: PinRef,
    },
}

impl fmt::Display for ConnectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ConnectError::UnknownGate { gate } => write!(f, "gate g{gate} does not exist"),
            ConnectError::UnknownPort { port, output } => {
                let side = if output { "output" } else { "input" };
                write!(f, "primary {side} {port} does not exist")
            }
            ConnectError::PinOutOfRange {
                gate,
                pin,
                num_inputs,
            } => write!(
                f,
                "pin {pin} out of range for gate g{gate} with {num_inputs} inputs"
            ),
            ConnectError::NotADriver { pin } => write!(f, "{pin:?} is a sink, not a driver"),
        }
    }
}

impl Error for ConnectError {}

/// Error returned by [`NetlistBuilder::build`](crate::NetlistBuilder::build).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BuildNetlistError {
    /// A sink pin is driven by more than one driver.
    MultipleDrivers {
        /// Debug rendering of the over-driven sink pin.
        sink: String,
    },
    /// A gate input pin has no driver.
    UnconnectedPin {
        /// The gate instance name.
        gate: String,
        /// The dangling pin index.
        pin: u8,
    },
    /// A primary output has no driver.
    UnconnectedOutput {
        /// The port name.
        name: String,
    },
}

impl fmt::Display for BuildNetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildNetlistError::MultipleDrivers { sink } => {
                write!(f, "sink pin {sink} has multiple drivers")
            }
            BuildNetlistError::UnconnectedPin { gate, pin } => {
                write!(f, "input pin {pin} of gate {gate} is unconnected")
            }
            BuildNetlistError::UnconnectedOutput { name } => {
                write!(f, "primary output {name} is unconnected")
            }
        }
    }
}

impl Error for BuildNetlistError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        assert!(ConnectError::UnknownGate { gate: 3 }
            .to_string()
            .contains("g3"));
        assert_eq!(
            ConnectError::UnknownPort {
                port: 3,
                output: true
            }
            .to_string(),
            "primary output 3 does not exist"
        );
        let e = BuildNetlistError::UnconnectedPin {
            gate: "u7".into(),
            pin: 1,
        };
        assert!(e.to_string().contains("u7"));
        assert!(e.to_string().contains("pin 1"));
    }

    #[test]
    fn errors_are_std_errors() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<ConnectError>();
        assert_err::<BuildNetlistError>();
    }
}
