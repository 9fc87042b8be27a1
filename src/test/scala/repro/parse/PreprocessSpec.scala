package repro.parse

import org.scalacheck.{Gen, Prop, Test => Check}
import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class PreprocessSpec extends AnyFunSuite {

  test("tokenize splits on runs of whitespace") {
    assert(Preprocess.tokenize("a  b\tc   d") == Vector("a", "b", "c", "d"))
  }

  test("tokenize trims leading and trailing space") {
    assert(Preprocess.tokenize("  hello world  ") == Vector("hello", "world"))
  }

  test("tokenize of empty string is empty") {
    assert(Preprocess.tokenize("").isEmpty)
    assert(Preprocess.tokenize("   ").isEmpty)
  }

  test("extractStructured strips a trailing JSON payload") {
    val (core, payload) = Preprocess.extractStructured(
      """Send 42 bytes to 1.2.3.4 {"user_id": "125", "service": "dart_vader"}""")
    assert(core == "Send 42 bytes to 1.2.3.4")
    assert(payload.contains("""{"user_id": "125", "service": "dart_vader"}"""))
  }

  test("extractStructured leaves messages without payload untouched") {
    val (core, payload) = Preprocess.extractStructured("plain message no json")
    assert(core == "plain message no json")
    assert(payload.isEmpty)
  }

  test("extractStructured does not treat an all-JSON message as payload") {
    val msg = """{"only": "json"}"""
    val (core, payload) = Preprocess.extractStructured(msg)
    assert(core == msg)
    assert(payload.isEmpty)
  }

  test("parsePayload extracts flat key/value pairs in order") {
    val pairs = Preprocess.parsePayload("""{"a": "x", "b": "y-2", "c": "3"}""")
    assert(pairs == Seq("a" -> "x", "b" -> "y-2", "c" -> "3"))
  }

  test("looksVariable accepts numbers, IPs and ids") {
    assert(Preprocess.looksVariable("42"))
    assert(Preprocess.looksVariable("3.14"))
    assert(Preprocess.looksVariable("10.250.1.3"))
    assert(Preprocess.looksVariable("/10.250.1.3"))
    assert(Preprocess.looksVariable("blk_123"))
    assert(Preprocess.looksVariable("vol-7"))
  }

  test("looksVariable rejects plain words") {
    assert(!Preprocess.looksVariable("Sending"))
    assert(!Preprocess.looksVariable("bytes"))
    assert(!Preprocess.looksVariable("src:"))
  }

  test("tokenize-then-join roundtrips single-space messages (100 random cases)") {
    val rng = new Random(1)
    (1 to 100).foreach { _ =>
      val words = Vector.fill(1 + rng.nextInt(10))(Random.alphanumeric.take(1 + rng.nextInt(8)).mkString)
      val msg = words.mkString(" ")
      assert(Preprocess.tokenize(msg) == words)
    }
  }

  test("extractStructured core never contains the payload braces (100 random cases)") {
    val rng = new Random(2)
    (1 to 100).foreach { _ =>
      val k = "k" + rng.nextInt(1000)
      val v = "v" + rng.nextInt(1000)
      val (core, payload) = Preprocess.extractStructured(s"""head tail {"$k": "$v"}""")
      assert(core == "head tail")
      assert(payload.isDefined)
    }
  }

  /** The regex `extractStructured` used to run, kept as its reference. */
  private val TrailingJson = """\s*(\{.*\})\s*$""".r

  private def byRegex(message: String): (String, Option[String]) =
    TrailingJson.findFirstMatchIn(message) match {
      case Some(m) if m.start > 0 => (message.substring(0, m.start).trim, Some(m.group(1)))
      case _                      => (message.trim, None)
    }

  private def agreesWithRegex(alphabet: Seq[Char]): Unit = {
    val strings = Gen.choose(0, 40).flatMap(Gen.listOfN(_, Gen.oneOf(alphabet)).map(_.mkString))
    val result = Check.check(Check.Parameters.default.withMinSuccessfulTests(5000),
      Prop.forAll(strings)(m => Preprocess.extractStructured(m) == byRegex(m)))
    assert(result.passed, result.status.toString)
  }

  test("extractStructured returns what the trailing-JSON regex returns") {
    agreesWithRegex(Seq('{', '}', '"', ':', 'a', ' ', '\t', '\n'))
  }

  test("extractStructured agrees with the regex on every line terminator and space") {
    agreesWithRegex(Seq('{', '}', 'a', ' ', '\n', '\r', '\u000B', '\f',
                        '\u0085', '\u2028', '\u2029'))
  }

  test("extractStructured returns promptly on hostile lines") {
    val hostile = Seq("{" * 65536, "x" + " " * 65536 + "y",
                      "x " + "{" * 65536 + "}", "x" + " " * 65536 + "{}")
    hostile.foreach { m =>
      val t0 = System.nanoTime()
      Preprocess.extractStructured(m)
      val s = (System.nanoTime() - t0) / 1e9
      assert(s < 1.0, f"${m.take(8)}… (${m.length} chars) took $s%.2f s")
    }
  }
}
