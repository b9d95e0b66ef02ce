"""An XPath 1.0 subset engine, built from scratch.

Both WS-Eventing (default filter dialect) and WS-BaseNotification 1.3
(MessageContent filter) use XPath 1.0 expressions that must evaluate to a
boolean over the notification message.  This package implements the fragment
of XPath 1.0 those dialects need:

- location paths over child/attribute/descendant/self/parent axes, with
  namespace-aware name tests and wildcards;
- predicates, including positional predicates;
- the full expression grammar (or/and/equality/relational/arithmetic/union);
- the core function library (string, boolean, number and node-set functions);
- XPath 1.0 type coercion, including existential node-set comparison.

Entry point: :class:`XPath` compiles an expression once; ``evaluate`` returns
the raw XPath value and ``matches`` applies boolean coercion, which is exactly
the "evaluates to a Boolean" filter criterion in both specifications.

The front end is the one the JMS selector and CORBA TCL languages share
(:mod:`repro.util.grammar`): :mod:`~repro.xmlkit.xpath.lexer` is one scanner
pattern plus one pass for the section 3.7 disambiguation, and the grammar
rows of :mod:`~repro.xmlkit.xpath.parser` build the expression's closures as
they parse, so there is no AST and no second pass.
"""

from repro.xmlkit.xpath.errors import XPathError, XPathSyntaxError, XPathEvaluationError
from repro.xmlkit.xpath.engine import XPath

__all__ = ["XPath", "XPathError", "XPathSyntaxError", "XPathEvaluationError"]
