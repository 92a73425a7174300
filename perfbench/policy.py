"""Scripted replies for the benchmark, in place of a language model.

``Policy`` answers every prompt the pipeline sends from the generated
``script.json``.  It tells prompts apart by the fixed text each template
starts with, read from the program's own templates, so an edited template
body still matches:

- a generation prompt is keyed on the question in its *last* ``Question:``
  block (the NK exemplar block also starts with ``Question:``);
- a repair call carries the whole conversation: the question comes from its
  first message and the round from the number of assistant turns;
- V3 naturalize echoes the query, back-translate looks the query up, and
  equivalence says "same" only for a back-translation scripted as a
  paraphrase of the question asked;
- a selection prompt always picks option 1, the earliest candidate.

``PolicyGateway`` serves the policy in process; ``stub.py`` serves it over
HTTP.
"""

from __future__ import annotations

import json

from kbqa_repair.gateway import GenerationGateway, Message
from kbqa_repair.prompts import template_text


class PolicyMiss(Exception):
    """A prompt the script has no reply for: the script and the pipeline disagree."""


def _static_prefix(template_id: str) -> str:
    return template_text(template_id).split("${", 1)[0]


class Policy:
    def __init__(self, script: dict):
        self.replies: dict[str, list[str]] = script["replies"]
        self.back: dict[str, str] = script["back_translations"]
        self.equivalent: dict[str, str] = script["equivalent"]
        self.flaky: dict[str, int] = script.get("flaky", {})
        self.generate_prefix = _static_prefix("pun-header")
        self.naturalize_prefix = _static_prefix("v3-naturalize")
        self.backtranslate_prefix = _static_prefix("v3-backtranslate")
        self.equivalence_prefix = _static_prefix("v3-equivalence")
        self.select_prefix = _static_prefix("scun-select")

    @classmethod
    def from_file(cls, path: str) -> "Policy":
        with open(path, encoding="utf-8") as handle:
            return cls(json.load(handle))

    @staticmethod
    def question_of(generation_prompt: str) -> str:
        """The question of the last ``Question:`` block."""
        start = generation_prompt.rfind("Question: ")
        if start < 0:
            raise PolicyMiss("generation prompt has no Question: block")
        return generation_prompt[start + len("Question: ") :].split("\n", 1)[0]

    def is_generation(self, texts: list[str]) -> bool:
        return len(texts) == 1 and texts[0].startswith(self.generate_prefix)

    def reply(self, texts: list[str]) -> str:
        """Reply to a conversation given as its message texts, oldest first."""
        first = texts[0]
        if len(texts) > 1 or first.startswith(self.generate_prefix):
            script = self.replies.get(self.question_of(first))
            if script is None:
                raise PolicyMiss(f"no script for question {self.question_of(first)!r}")
            return script[min(len(texts) // 2, len(script) - 1)]
        if first.startswith(self.naturalize_prefix):
            return first[len(self.naturalize_prefix) :].strip()
        if first.startswith(self.backtranslate_prefix):
            query = first[len(self.backtranslate_prefix) :].strip()
            if query not in self.back:
                raise PolicyMiss(f"no back-translation for {query!r}")
            return self.back[query]
        if first.startswith(self.equivalence_prefix):
            answered = first[first.rfind("Question we answer: ") :].split("\n", 1)[0]
            asked = first[first.rfind("Question originally asked: ") :].split("\n", 1)[0]
            answered = answered[len("Question we answer: ") :]
            asked = asked[len("Question originally asked: ") :]
            if self.equivalent.get(answered) == asked:
                return "Both ask for the same thing.\nHence, they are same."
            return "They ask for different things.\nHence, they are different."
        if first.startswith(self.select_prefix):
            return "Option 1 reads closest to the original question."
        raise PolicyMiss(f"unrecognised prompt: {first[:200]!r}")


class PolicyGateway(GenerationGateway):
    """In-process, zero-latency gateway that replays the policy."""

    def __init__(self, script_path: str):
        super().__init__()
        self.policy = Policy.from_file(script_path)

    def _complete(self, conversation: list[Message]) -> str:
        return self.policy.reply([m.text for m in conversation])
