"""Filter dialects for event notification.

Table 3's "Filter" and "Filter language" rows are the heart of the paper's
evolution story: from *no filtering* (CORBA Event Service), to Trader
Constraint Language filter objects (CORBA Notification), to SQL92-subset
message selectors (JMS), to serviceDataName strings (OGSI), to topic
hierarchies plus content-based XPath (WS-Notification / WS-Eventing).  Every
one of those filter languages is implemented in this package:

- :mod:`repro.filters.base` -- the common ``Filter`` interface and the
  notification context it evaluates against.
- :mod:`repro.filters.topics` -- hierarchical topic spaces and the WS-Topics
  Simple/Concrete/Full expression dialects.
- :mod:`repro.filters.content` -- XPath message-content filters (WSE default
  dialect; WSN MessageContent filter).
- :mod:`repro.filters.producer` -- WSN ProducerProperties filters.
- :mod:`repro.filters.compilecache` -- shared compiled-expression caches
- :mod:`repro.filters.selector` -- the JMS SQL92-subset message selector.
- :mod:`repro.filters.tcl` -- the CORBA Notification extended Trader
  Constraint Language subset.

The selector and TCL parsers are grammar rows over :mod:`repro.util.grammar`
(the front end XPath's parser shares) that build the match closures
directly; an expression nested deeper than ``grammar.MAX_DEPTH`` is a
syntax error in all three languages.
"""

from repro.filters.base import AcceptAllFilter, AndFilter, Filter, FilterContext, FilterError
from repro.filters.content import MessageContentFilter
from repro.filters.producer import ProducerPropertiesFilter
from repro.filters.topics import (
    TopicDialect,
    TopicExpression,
    TopicFilter,
    TopicNamespace,
    TopicPath,
    TopicSubscriptionIndex,
    topic_expression_of,
)

__all__ = [
    "Filter",
    "FilterContext",
    "FilterError",
    "AcceptAllFilter",
    "AndFilter",
    "MessageContentFilter",
    "ProducerPropertiesFilter",
    "TopicNamespace",
    "TopicPath",
    "TopicSubscriptionIndex",
    "topic_expression_of",
    "TopicExpression",
    "TopicDialect",
    "TopicFilter",
]
